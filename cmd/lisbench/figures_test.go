package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"cdfpoison/internal/bench"
)

// TestSelectFiguresUnknownListsEveryRunner: the unknown-figure error names
// every runner, so the message cannot drift from the runner table.
func TestSelectFiguresUnknownListsEveryRunner(t *testing.T) {
	_, err := selectFigures("2,nope")
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	msg := err.Error()
	m := regexp.MustCompile(`\(want ([^)]*)\)`).FindStringSubmatch(msg)
	if m == nil {
		t.Fatalf("error %q lists no alternatives", msg)
	}
	listed := map[string]bool{}
	for _, f := range strings.Split(m[1], "|") {
		listed[f] = true
	}
	for f := range runners {
		if !listed[f] {
			t.Errorf("error %q omits runner %q", msg, f)
		}
	}
	if !listed["all"] {
		t.Errorf("error %q omits all", msg)
	}
	for f := range listed {
		if _, ok := runners[f]; !ok && f != "all" {
			t.Errorf("error %q lists %q, which has no runner", msg, f)
		}
	}
}

// TestSelectFigures: "all" is the fixed order without perf; a list keeps
// the caller's order.
func TestSelectFigures(t *testing.T) {
	all, err := selectFigures("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(runners)-1 {
		t.Fatalf("all selects %d figures, want every runner but perf (%d)", len(all), len(runners)-1)
	}
	for _, f := range all {
		if f == "perf" {
			t.Fatal("all includes perf")
		}
	}
	got, err := selectFigures("online, 5")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "online,5" {
		t.Fatalf("selected %v, want [online 5]", got)
	}
}

// csvName and fingerprint match a backticked CSV name and a backticked
// 12-hex fingerprint in an EXPERIMENTS.md table cell.
var (
	csvName     = regexp.MustCompile("`([A-Za-z0-9_-]+\\.csv)`")
	fingerprint = regexp.MustCompile("`([0-9a-f]{12})`")
)

// recordedFingerprints reads EXPERIMENTS.md's tables: for each row, the
// CSV cell's file names pair in order with the next cell's fingerprints.
// Files whose fingerprint cell reads *timing* map to "".
func recordedFingerprints(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.ReplaceAll(line, `\|`, ""), "|")
		for i := 0; i+1 < len(cells); i++ {
			names := csvName.FindAllStringSubmatch(cells[i], -1)
			if len(names) == 0 {
				continue
			}
			sums := fingerprint.FindAllStringSubmatch(cells[i+1], -1)
			timing := strings.Contains(cells[i+1], "*timing*")
			if !timing && len(sums) < len(names) {
				continue // a prose cell that mentions a CSV, not a CSV column
			}
			for j, n := range names {
				if timing {
					want[n[1]] = ""
				} else {
					want[n[1]] = sums[j][1]
				}
			}
			break
		}
	}
	return want
}

// TestScenarioFingerprints regenerates the scenario, defense, throughput
// and extension CSVs at quick scale, seed 42, and checks each against the
// 12-hex sha256 prefix EXPERIMENTS.md records — the byte-identity bar every
// refactor of the scenario engine is held to.
func TestScenarioFingerprints(t *testing.T) {
	want := recordedFingerprints(t)
	if len(want) == 0 {
		t.Fatal("no fingerprints parsed from EXPERIMENTS.md")
	}
	dir := t.TempDir()
	opts := bench.Options{Scale: bench.ScaleQuick, Seed: 42}
	for _, f := range []string{"online", "serve", "churn", "cascade", "defense", "throughput", "ext"} {
		if err := silently(t, func() error { return runners[f](opts, dir) }); err != nil {
			t.Fatalf("figure %s: %v", f, err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, path := range files {
		name := filepath.Base(path)
		rec, ok := want[name]
		if !ok {
			t.Errorf("%s has no row in EXPERIMENTS.md", name)
			continue
		}
		if rec == "" {
			continue // *timing*: wall-clock columns
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got := hex.EncodeToString(sum[:])[:12]
		checked++
		if got == rec {
			continue
		}
		if runtime.GOARCH != "amd64" {
			t.Skipf("%s: fingerprint %s, recorded %s on amd64; %s may round floats differently (fused multiply-add)",
				name, got, rec, runtime.GOARCH)
		}
		t.Errorf("%s: fingerprint %s, EXPERIMENTS.md records %s", name, got, rec)
	}
	// Six scenario CSVs plus five extension CSVs (ext-trim is *timing*).
	if checked != 11 {
		t.Fatalf("checked %d fingerprints, want 11", checked)
	}
}
