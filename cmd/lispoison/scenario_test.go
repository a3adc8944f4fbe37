package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	return capture(t, &os.Stdout, fn)
}

// capture runs fn with *f (os.Stdout or os.Stderr) redirected and returns
// what it printed there.
func capture(t *testing.T, f **os.File, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := *f
	*f = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := fn()
	*f = orig
	w.Close()
	out := <-done
	r.Close()
	return out, runErr
}

func genKeys(t *testing.T, n, domain, seed string) string {
	t.Helper()
	keysFile := tmpPath(t, "keys.txt")
	if err := cmdGen([]string{"-dist", "uniform", "-n", n, "-domain", domain, "-seed", seed, "-o", keysFile}); err != nil {
		t.Fatal(err)
	}
	return keysFile
}

func TestCascadeMode(t *testing.T) {
	keysFile := genKeys(t, "600", "24000", "5")
	poisonFile := tmpPath(t, "poison.txt")
	out, err := captureStdout(t, func() error {
		return cmdCascade([]string{"-in", keysFile, "-epochs", "3", "-percent", "8",
			"-leaf", "16", "-workload", "zipf:1.1:80", "-o", poisonFile})
	})
	if err != nil {
		t.Fatalf("cascade: %v", err)
	}
	if !strings.Contains(out, "final struct ratio") {
		t.Fatalf("cascade output lacks the headline:\n%s", out)
	}
	poison, err := readKeys(poisonFile)
	if err != nil {
		t.Fatal(err)
	}
	if poison.Len() == 0 || poison.Len() > 3*48 {
		t.Fatalf("poison count %d, want (0, %d]", poison.Len(), 3*48)
	}
	clean, _ := readKeys(keysFile)
	for _, k := range poison.Keys() {
		if clean.Contains(k) {
			t.Fatalf("poison key %d collides with a clean key", k)
		}
	}
}

func TestCascadeRejectsBadInput(t *testing.T) {
	keysFile := genKeys(t, "100", "4000", "1")
	if err := cmdCascade([]string{"-epochs", "2"}); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := cmdCascade([]string{"-in", keysFile, "-workload", "pareto"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := cmdCascade([]string{"-in", keysFile, "-epochs", "0"}); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

// TestCascadeWorkersFlagDeterminism: -workers changes neither the cascade
// report nor its poison keys.
func TestCascadeWorkersFlagDeterminism(t *testing.T) {
	keysFile := genKeys(t, "500", "20000", "13")
	run := func(workers string) string {
		t.Helper()
		poisonFile := tmpPath(t, "poison.txt")
		out, err := captureStdout(t, func() error {
			return cmdCascade([]string{"-in", keysFile, "-epochs", "2", "-percent", "10",
				"-leaf", "8", "-workers", workers, "-o", poisonFile})
		})
		if err != nil {
			t.Fatalf("cascade -workers %s: %v", workers, err)
		}
		data, err := os.ReadFile(poisonFile)
		if err != nil {
			t.Fatal(err)
		}
		// The last line names the temp output file, which differs per run.
		return out[:strings.LastIndex(out, "wrote ")] + string(data)
	}
	if seq, par := run("1"), run("0"); seq != par {
		t.Fatalf("cascade output depends on -workers:\n%s\nvs\n%s", seq, par)
	}
}

// TestDefenseScenarios runs `lispoison defense` over all five scenarios,
// each with a defense that acts on it, and checks the report is complete
// and identical for -workers 1 and -workers 0.
func TestDefenseScenarios(t *testing.T) {
	keysFile := genKeys(t, "800", "32000", "9")
	for _, tc := range []struct {
		scenario string
		flags    []string
	}{
		{"static", nil},
		{"online", []string{"-fitter", "trimmed:10"}},
		{"serve", []string{"-rate", "4:20", "-sources", "8"}},
		{"churn", []string{"-rate", "3:30", "-sources", "8"}},
		{"cascade", []string{"-chain", "none", "-rate", "2:40", "-sources", "16", "-balanced", "-percent", "8"}},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			run := func(workers string) string {
				t.Helper()
				args := append([]string{"-in", keysFile, "-scenario", tc.scenario, "-epochs", "3", "-workers", workers}, tc.flags...)
				out, err := captureStdout(t, func() error { return cmdDefense(args) })
				if err != nil {
					t.Fatalf("defense -workers %s: %v", workers, err)
				}
				return out
			}
			seq := run("1")
			for _, want := range []string{"undefended damage ratio", "defended damage ratio",
				"damage reduction", "poison blocked", "honest overhead"} {
				if !strings.Contains(seq, want) {
					t.Fatalf("report lacks %q:\n%s", want, seq)
				}
			}
			// The online CLI scenario has no honest arrivals, so only the
			// attacker's side must have seen write attempts.
			if strings.Contains(seq, "throttled of 0 attempts)\n  honest") {
				t.Fatalf("the attacker made no write attempts:\n%s", seq)
			}
			if par := run("0"); par != seq {
				t.Fatalf("report depends on -workers:\n%s\nvs\n%s", seq, par)
			}
		})
	}
}

func TestDefenseRejectsBadInput(t *testing.T) {
	keysFile := genKeys(t, "100", "4000", "1")
	for _, args := range [][]string{
		{"-scenario", "static"},
		{"-in", keysFile, "-scenario", "replay"},
		{"-in", keysFile, "-rate", "fast"},
		{"-in", keysFile, "-rate", "4:20junk"},
		{"-in", keysFile, "-rate", "0:20"},
		{"-in", keysFile, "-chain", "density:x"},
		{"-in", keysFile, "-fitter", "median"},
	} {
		if _, err := captureStdout(t, func() error { return cmdDefense(args) }); err == nil {
			t.Errorf("defense %v accepted", args)
		}
	}
}

// scenarioCommands are the subcommands built on the shared scenarioCmd
// loader, with the optional spec flags each one registers.
var scenarioCommands = []struct {
	name  string
	run   func([]string) error
	specs []string
}{
	{"online", cmdOnline, []string{"policy"}},
	{"serve", cmdServe, []string{"policy", "cost", "workload"}},
	{"churn", cmdChurn, []string{"policy", "cost", "workload"}},
	{"cascade", cmdCascade, []string{"workload"}},
	{"throughput", cmdThroughput, []string{"policy", "cost", "workload"}},
	{"defense", cmdDefense, []string{"policy", "cost", "workload"}},
}

// helpText renders a scenario subcommand's -h output.
func helpText(t *testing.T, run func([]string) error) string {
	t.Helper()
	scenarioFlagErrors = flag.ContinueOnError
	defer func() { scenarioFlagErrors = flag.ExitOnError }()
	out, err := capture(t, &os.Stderr, func() error { return run([]string{"-h"}) })
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	return out
}

// TestScenarioHelpText: flag usage strings are printed verbatim, not as
// format strings, so no help text may carry a doubled percent sign.
func TestScenarioHelpText(t *testing.T) {
	for _, sc := range scenarioCommands {
		help := helpText(t, sc.run)
		if !strings.Contains(help, "\n  -in string") {
			t.Errorf("%s -h lacks -in:\n%s", sc.name, help)
		}
		if strings.Contains(help, "%%") {
			t.Errorf("%s -h prints a literal %%%%:\n%s", sc.name, help)
		}
	}
}

// TestScenarioLoaderRejectsBadInput drives the shared loader through every
// scenario subcommand: a missing -in, -epochs 0, a negative -percent, and
// a bad spec for each of -policy, -cost and -workload the subcommand
// registers all fail in the loader, before any scenario runs.
func TestScenarioLoaderRejectsBadInput(t *testing.T) {
	keysFile := genKeys(t, "100", "4000", "1")
	bad := map[string]string{"policy": "hourly", "cost": "cubic:3", "workload": "pareto"}
	for _, sc := range scenarioCommands {
		help := helpText(t, sc.run)
		cases := map[string][]string{
			"-in is required":       {"-epochs", "2"},
			"-epochs must be >= 1":  {"-in", keysFile, "-epochs", "0"},
			"-percent must be >= 0": {"-in", keysFile, "-percent", "-5"},
		}
		for _, spec := range []string{"policy", "cost", "workload"} {
			registered := strings.Contains(help, "\n  -"+spec+" string")
			if registered != slices.Contains(sc.specs, spec) {
				t.Errorf("%s registers -%s: %v, want %v", sc.name, spec, registered, !registered)
			}
			if registered {
				cases["unknown "+spec] = []string{"-in", keysFile, "-" + spec, bad[spec]}
			}
		}
		for want, args := range cases {
			out, err := captureStdout(t, func() error { return sc.run(args) })
			switch {
			case err == nil:
				t.Errorf("%s %v accepted", sc.name, args)
			case !strings.HasPrefix(err.Error(), sc.name+": ") || !strings.Contains(err.Error(), want):
				t.Errorf("%s %v: error %q, want %q from the loader", sc.name, args, err, want)
			case out != "":
				t.Errorf("%s %v printed before failing:\n%s", sc.name, args, out)
			}
		}
	}
}
