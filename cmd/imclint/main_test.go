package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildTool compiles imclint into a temp dir and returns its path.
func buildTool(t *testing.T) string {
	t.Helper()
	tool := filepath.Join(t.TempDir(), "imclint")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building imclint: %v\n%s", err, out)
	}
	return tool
}

// writeLaunderModule materializes the canonical laundering scenario as
// a standalone module: hostutil (outside modelled scope) wraps
// time.Now, and a package whose path contains "staging" (modelled
// scope) calls the wrapper. No modelled package names the clock, so
// only the cross-package facts pass can see it.
func writeLaunderModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/launder\n\ngo 1.22\n",
		"hostutil/hostutil.go": `package hostutil

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
		"staging/staging.go": `package staging

import "example.com/launder/hostutil"

func Tick() int64 { return hostutil.Stamp() }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLaunderingFails is the regression test for the laundering hole:
// the wrapped-clock module must fail imclint with exit 2, and the
// finding at the modelled call site must carry the witness chain back
// to the clock.
func TestLaunderingFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	tool := buildTool(t)
	dir := writeLaunderModule(t)

	cmd := exec.Command(tool, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("imclint: want exit 2 on findings, got %v\n%s", err, out)
	}
	m := regexp.MustCompile(`staging\.go:\d+:\d+: nondetflow: (.+)`).FindStringSubmatch(string(out))
	if m == nil {
		t.Fatalf("no nondetflow finding for staging.go:\n%s", out)
	}
	if !strings.Contains(m[1], "hostutil.Stamp") || !strings.Contains(m[1], "time.Now") {
		t.Fatalf("finding lacks the witness chain: %s", m[1])
	}
}

// TestJSONReport checks the machine-readable output: a sorted, stable
// JSON array on findings, a literal [] on a clean tree, and -o writing
// the report file CI uploads as an artifact.
func TestJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	tool := buildTool(t)
	dir := writeLaunderModule(t)

	report := filepath.Join(dir, "imclint-report.json")
	cmd := exec.Command(tool, "-json", "-o", report, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2 on findings, got %v\n%s", err, out)
	}
	// With -o the report goes to the file; the log still shows findings.
	if !strings.Contains(string(out), "nondetflow") {
		t.Fatalf("findings not echoed to stdout with -o:\n%s", out)
	}
	data1, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(data1, &findings); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, data1)
	}
	if len(findings) == 0 || findings[0].Analyzer != "nondetflow" ||
		findings[0].File != "staging/staging.go" || findings[0].Line == 0 {
		t.Fatalf("unexpected report contents: %+v", findings)
	}

	// Byte-stability: a second run must produce the identical report.
	cmd = exec.Command(tool, "-json", "-o", report, "./...")
	cmd.Dir = dir
	cmd.Run()
	data2, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatal("JSON report differs between identical runs")
	}

	// A clean package encodes as the empty array, not null.
	clean := exec.Command(tool, "-json", "./hostutil")
	clean.Dir = dir
	out, err = clean.Output()
	if err != nil {
		t.Fatalf("clean package: %v", err)
	}
	if strings.TrimSpace(string(out)) != "[]" {
		t.Fatalf("clean tree should print [], got %q", out)
	}
}
