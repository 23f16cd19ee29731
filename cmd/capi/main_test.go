package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	capi "capi"
)

// capiRun runs one invocation in process and returns its exit status,
// stdout and stderr.
func capiRun(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func golden(t *testing.T, name string) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// TestGoldens holds each subcommand's stdout byte for byte to what the
// separate select, run and score tools printed before they became
// subcommands (testdata/*.golden).
func TestGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"select_lulesh_mpi.golden", []string{"select", "-app", "lulesh", "-builtin", "mpi"}},
		{"select_openfoam_scorep.golden", []string{"select", "-app", "openfoam", "-scale", "0.05", "-builtin", "kernels coarse", "-format", "scorep"}},
		{"run_quickstart_text.golden", []string{"run", "-app", "quickstart", "-builtin", "mpi", "-backend", "talp,extrae", "-ranks", "1"}},
		{"run_quickstart_json.golden", []string{"run", "-app", "quickstart", "-builtin", "mpi", "-backend", "talp,scorep", "-ranks", "2", "-json"}},
		{"score_lulesh.golden", []string{"score", "-app", "lulesh", "-ranks", "2"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			code, stdout, stderr := capiRun(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if stdout != golden(t, tc.golden) {
				t.Errorf("stdout differs from testdata/%s\n--- got ---\n%s", tc.golden, stdout)
			}
		})
	}
}

// TestCallGraphRoundTrip: cg writes the graph the separate metacg tool
// wrote (pinned by its hash), and select -cg reads it back into the IC
// the separate capi tool wrote.
func TestCallGraphRoundTrip(t *testing.T) {
	cg := filepath.Join(t.TempDir(), "lulesh.cg.json")
	if code, _, stderr := capiRun(t, "cg", "-app", "lulesh", "-o", cg); code != 0 {
		t.Fatalf("cg: exit %d: %s", code, stderr)
	}
	data, err := os.ReadFile(cg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x\n", sha256.Sum256(data)), golden(t, "cg_lulesh.sha256"); got != want {
		t.Errorf("cg output sha256 %s, want %s", got, want)
	}
	code, stdout, stderr := capiRun(t, "select", "-cg", cg, "-builtin", "mpi")
	if code != 0 {
		t.Fatalf("select -cg: exit %d: %s", code, stderr)
	}
	if want := golden(t, "select_cg_lulesh_mpi.golden"); stdout != want {
		t.Errorf("select -cg stdout differs from golden\n--- got ---\n%s", stdout)
	}
}

// TestUsageErrorKeepsOutputFile: a bad -format is refused before -o is
// created, so an existing output file survives byte for byte.
func TestUsageErrorKeepsOutputFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.ic")
	const keep = "previous IC\n"
	if err := os.WriteFile(out, []byte(keep), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := capiRun(t, "select", "-app", "quickstart", "-builtin", "mpi", "-format", "xml", "-o", out)
	if code != 2 || !strings.Contains(stderr, "capi select: unknown -format") {
		t.Errorf("exit %d, stderr %q; want 2 and the -format error", code, stderr)
	}
	if got, _ := os.ReadFile(out); string(got) != keep {
		t.Errorf("output file now %q, want it untouched", got)
	}
}

// TestSelectionFlagsExclusive: one selection rule for every subcommand —
// two selection flags are a usage error naming both.
func TestSelectionFlagsExclusive(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"select", "-spec", "x.spec", "-builtin", "mpi"}, "-builtin and -spec are mutually exclusive"},
		{[]string{"run", "-ic", "x.ic.json", "-full"}, "-full and -ic are mutually exclusive"},
		// The unusable -addr keeps a broken rule from serving forever.
		{[]string{"serve", "-full", "-spec", "x.spec", "-addr", "127.0.0.1:-1"}, "-full and -spec are mutually exclusive"},
	} {
		code, _, stderr := capiRun(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want 2 and %q", tc.args, code, stderr, tc.want)
		}
	}
}

// TestServeChecksBeforeSession: serve's flag combinations are refused
// before any session is built.
func TestServeChecksBeforeSession(t *testing.T) {
	defer func(orig func(string, float64) (*capi.Session, error)) { newAppSession = orig }(newAppSession)
	newAppSession = func(string, float64) (*capi.Session, error) {
		t.Error("session built before the flags were checked")
		return nil, errors.New("no session")
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"serve", "-slo-p99-ms", "5"}, "-slo-p99-ms needs request traffic"},
		{[]string{"serve", "-http-workers", "2", "-app", "lulesh"}, "use -app webservice"},
	} {
		code, _, stderr := capiRun(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want 2 and %q", tc.args, code, stderr, tc.want)
		}
	}
}

// TestAsyncBudgetRejected: budget-mode adaptation under -async is the
// library's error, exit 1.
func TestAsyncBudgetRejected(t *testing.T) {
	code, _, stderr := capiRun(t, "run", "-async", "-budget", "0.01")
	if code != 1 || !strings.Contains(stderr, "capi run: capi: Async and Adapt are incompatible") {
		t.Errorf("exit %d, stderr %q; want 1 and the incompatibility error", code, stderr)
	}
}

// TestCommandLine: a missing or unknown subcommand lists the subcommands
// and exits 2; -h exits 0; a bad flag or backend name fails.
func TestCommandLine(t *testing.T) {
	for _, args := range [][]string{nil, {"bench"}} {
		code, _, stderr := capiRun(t, args...)
		if code != 2 || !strings.Contains(stderr, "select  choose functions") || !strings.Contains(stderr, "score ") {
			t.Errorf("%v: exit %d, stderr %q; want 2 and the command list", args, code, stderr)
		}
	}
	if code, _, stderr := capiRun(t, "serve", "-h"); code != 0 || !strings.Contains(stderr, "-slo-p99-ms") {
		t.Errorf("serve -h: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := capiRun(t, "run", "-nope"); code != 2 || !strings.Contains(stderr, "-nope") {
		t.Errorf("run -nope: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := capiRun(t, "serve", "-backend", "talpp"); code != 2 || !strings.Contains(stderr, "registered:") {
		t.Errorf("serve -backend talpp: exit %d, stderr %q", code, stderr)
	}
}

// countBackend is a custom backend whose report has no text renderer.
type countBackend struct{ enters atomic.Int64 }

func (b *countBackend) Name() string                               { return "test-count" }
func (b *countBackend) OnEnter(capi.ThreadCtx, *capi.ResolvedFunc) { b.enters.Add(1) }
func (b *countBackend) OnExit(capi.ThreadCtx, *capi.ResolvedFunc)  {}
func (b *countBackend) InitCost(int) int64                         { return 0 }
func (b *countBackend) StartPhase(*capi.World) error               { b.enters.Store(0); return nil }
func (b *countBackend) Report() capi.Report {
	return capi.JSONReport{ReportKind: "count", Value: map[string]int64{"enters": b.enters.Load()}}
}

func init() {
	capi.RegisterBackend("test-count", func(capi.BackendConfig) (capi.MeasurementBackend, error) {
		return &countBackend{}, nil
	})
}

// TestRunTextFallsBackToJSON: in text mode a report without a text
// renderer prints as its JSON document, after the built-in ones.
func TestRunTextFallsBackToJSON(t *testing.T) {
	code, stdout, stderr := capiRun(t, "run", "-backend", "talp,test-count", "-ranks", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	i := strings.Index(stdout, "== test-count (count) ==\n{\"enters\":")
	if i < 0 || !strings.Contains(stdout[:i], "== talp (talp) ==") {
		t.Errorf("stdout lacks the talp text report followed by the JSON count report:\n%s", stdout)
	}
}
