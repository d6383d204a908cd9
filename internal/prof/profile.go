package prof

import (
	"encoding/json"
	"fmt"
	"io"
)

// Schema identifies the profile document version. Readers (cmd/imcprof)
// reject documents whose schema they do not understand.
const Schema = "imcprof/1"

// SiteCount is the deterministic tally of one (component kind, event
// site): how many events the site executed and how much virtual time
// those events advanced the clock. Both depend only on the event
// sequence, so they are covered by the deterministic digest.
type SiteCount struct {
	Kind     string  `json:"kind"`
	Site     string  `json:"site"`
	Events   int64   `json:"events"`
	VirtualS float64 `json:"virtual_s"`
}

// DepthSample is one point of the scheduler health series, taken every
// sample interval of executed events: queue depth and the cumulative
// schedItem pool hit/miss counts. All fields derive from the event
// sequence and are digest-covered.
type DepthSample struct {
	Event      int64   `json:"event"`
	T          float64 `json:"t"`
	Depth      int     `json:"depth"`
	PoolHits   int64   `json:"pool_hits"`
	PoolMisses int64   `json:"pool_misses"`
}

// Deterministic is the digest-covered half of a profile: every field is
// a pure function of the simulated event sequence, so two runs of the
// same configuration and binary produce byte-identical encodings (the
// same property workflow metrics digests rely on).
type Deterministic struct {
	VirtualS      float64       `json:"virtual_s"`
	Events        int64         `json:"events"`
	Callbacks     int64         `json:"callbacks"`
	PoolHits      int64         `json:"pool_hits"`
	PoolMisses    int64         `json:"pool_misses"`
	MaxQueueDepth int           `json:"max_queue_depth"`
	Sites         []SiteCount   `json:"sites"`
	QueueDepth    []DepthSample `json:"queue_depth"`
}

// SiteWall is the wall-clock and allocator cost of one (kind, site):
// nanoseconds spent executing its events and bytes allocated while they
// ran. Neither is deterministic; both are excluded from digests.
type SiteWall struct {
	Kind       string `json:"kind"`
	Site       string `json:"site"`
	WallNs     int64  `json:"wall_ns"`
	AllocBytes int64  `json:"alloc_bytes"`
}

// WallSample is one point of wall-clock progress: cumulative
// nanoseconds after the given executed-event count. Paired with the
// same-event DepthSample it yields events/second over the run.
type WallSample struct {
	Event  int64 `json:"event"`
	WallNs int64 `json:"wall_ns"`
}

// Walltime is the non-deterministic half of a profile. Everything here
// reads the wall clock or the allocator and varies run to run; none of
// it may feed a golden digest.
type Walltime struct {
	WallNs     int64        `json:"wall_ns"`
	OverheadNs int64        `json:"overhead_ns"`
	Sites      []SiteWall   `json:"sites"`
	Progress   []WallSample `json:"progress"`
}

// Profile is one simulator self-profile: the run journal of where the
// event loop spent its time. The document cleanly separates fields that
// are deterministic (and may be golden-gated) from wall-time fields
// that are informational only.
type Profile struct {
	Schema string `json:"schema"`
	// Label tags the run (machine/method/ranks); set by the capturer.
	Label         string        `json:"label,omitempty"`
	Deterministic Deterministic `json:"deterministic"`
	Walltime      Walltime      `json:"walltime"`
}

// EncodeJSON renders the whole profile as indented JSON. The
// deterministic section encodes byte-identically across runs; the
// walltime section does not.
func (p *Profile) EncodeJSON() ([]byte, error) {
	buf, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	return append(buf, '\n'), nil
}

// DeterministicJSON renders only the digest-covered section. This is
// the byte stream golden tests hash: identical configurations and
// binaries must produce identical output.
func (p *Profile) DeterministicJSON() ([]byte, error) {
	buf, err := json.MarshalIndent(p.Deterministic, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	return append(buf, '\n'), nil
}

// Decode parses a profile document, validating its schema. It is the
// only way code outside this package obtains a Profile value (the
// nilguard analyzer enforces this, as it does the metrics registry
// contract).
func Decode(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("prof: decoding profile: %w", err)
	}
	if p.Schema != Schema {
		return nil, fmt.Errorf("prof: unsupported schema %q (want %q)", p.Schema, Schema)
	}
	return &p, nil
}

// WallSeconds returns the profiled wall time in seconds.
func (p *Profile) WallSeconds() float64 { return float64(p.Walltime.WallNs) / 1e9 }

// EventsPerWallSecond returns the simulator's raw event throughput, or
// 0 when no wall time was recorded.
func (p *Profile) EventsPerWallSecond() float64 {
	if p.Walltime.WallNs <= 0 {
		return 0
	}
	return float64(p.Deterministic.Events) / p.WallSeconds()
}

// PoolHitRate returns the schedItem pool hit fraction in [0,1].
func (p *Profile) PoolHitRate() float64 {
	total := p.Deterministic.PoolHits + p.Deterministic.PoolMisses
	if total == 0 {
		return 0
	}
	return float64(p.Deterministic.PoolHits) / float64(total)
}
