//go:build !race

package imcstudy_test

// raceEnabled reports a -race build, where the 10k-rank cells run too
// slowly for the default suite.
const raceEnabled = false
