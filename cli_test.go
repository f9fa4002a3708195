package sunder

// End-to-end smoke tests of the command-line tools: build each binary and
// run a fast invocation, checking for the expected output markers. The
// paper-surface runs (every table and figure, the ablations, one simulated
// benchmark's device counters) are deterministic and are compared byte for
// byte against testdata/golden.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildTool(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

// matchGolden fails the test unless out equals testdata/golden/name byte for
// byte, reporting the first line that differs.
func matchGolden(t *testing.T, out, name string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	if out == string(want) {
		return
	}
	got, exp := strings.Split(out, "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			w = exp[i]
		}
		if g != w || i >= len(got) || i >= len(exp) {
			t.Errorf("output differs from testdata/golden/%s at line %d:\n got: %q\nwant: %q", name, i+1, g, w)
			return
		}
	}
}

// runFails runs the tool expecting a non-zero exit and returns its output.
func runFails(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		t.Errorf("%s %v: exit 0, want failure\n%s", bin, args, out)
	}
	return string(out)
}

func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()

	compile := buildTool(t, dir, "sunder/cmd/sunder-compile")
	out := run(t, compile, "-demo")
	for _, want := range []string{"Figure 3", "1-bit automaton", "16-bit automaton"} {
		if !strings.Contains(out, want) {
			t.Errorf("sunder-compile -demo missing %q:\n%s", want, out)
		}
	}
	out = run(t, compile, "-pattern", "a(b|c)d", "-rate", "2", "-dot", filepath.Join(dir, "dots"))
	for _, want := range []string{"8-bit (input)", "8-bit (2 nibbles)", "placement", "byte.dot"} {
		if !strings.Contains(out, want) {
			t.Errorf("sunder-compile missing %q:\n%s", want, out)
		}
	}

	sim := buildTool(t, dir, "sunder/cmd/sunder-sim")
	out = run(t, sim, "-list")
	if !strings.Contains(out, "Snort") || !strings.Contains(out, "SPM") {
		t.Errorf("sunder-sim -list:\n%s", out)
	}
	out = run(t, sim, "-benchmark", "Bro217", "-scale", "0.01", "-input", "4000")
	for _, want := range []string{"functional simulation", "Sunder @", "AP+RAD"} {
		if !strings.Contains(out, want) {
			t.Errorf("sunder-sim missing %q:\n%s", want, out)
		}
	}

	// Observability flags: -metrics dumps device counters, -trace writes a
	// valid Chrome trace_event file, -cpuprofile/-memprofile write profiles.
	tracePath := filepath.Join(dir, "trace.json")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	out = run(t, sim, "-benchmark", "Bro217", "-scale", "0.01", "-input", "4000",
		"-metrics", "-trace", tracePath, "-cpuprofile", cpuPath, "-memprofile", memPath)
	for _, want := range []string{"device counters:", "device_kernel_cycles", `pu_flushes{pu="0"}`, "wrote", "trace events"} {
		if !strings.Contains(out, want) {
			t.Errorf("sunder-sim -metrics/-trace missing %q:\n%s", want, out)
		}
	}
	out = run(t, sim, "-benchmark", "Bro217", "-scale", "0.01", "-input", "4000", "-metrics")
	matchGolden(t, out, "sunder-sim-metrics.txt")
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-trace output not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("-trace output has no events")
	}
	for _, path := range []string{cpuPath, memPath} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", path, err)
		}
	}

	bench := buildTool(t, dir, "sunder/cmd/sunder-bench")
	matchGolden(t, run(t, bench, "-scale", "0.01", "-input", "2000"), "sunder-bench.txt")
	matchGolden(t, run(t, bench, "-scale", "0.01", "-input", "2000", "-ablations"), "sunder-bench-ablations.txt")
	out = run(t, bench, "-table", "5")
	if !strings.Contains(out, "Table 5") || !strings.Contains(out, "AP (50nm)") {
		t.Errorf("sunder-bench -table 5:\n%s", out)
	}
	out = run(t, bench, "-fig", "9")
	if !strings.Contains(out, "Figure 9") {
		t.Errorf("sunder-bench -fig 9:\n%s", out)
	}
	out = run(t, bench, "-table", "4", "-scale", "0.01", "-input", "2000", "-metrics")
	for _, want := range []string{"Table 4", "device counters:", "device_kernel_cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("sunder-bench -metrics missing %q:\n%s", want, out)
		}
	}

	// -json honours the selectors: -table 5 alone is options + table5.
	var doc5 map[string]json.RawMessage
	if err := json.Unmarshal([]byte(run(t, bench, "-json", "-table", "5")), &doc5); err != nil {
		t.Fatalf("sunder-bench -json -table 5: %v", err)
	}
	if len(doc5) != 2 || doc5["options"] == nil || doc5["table5"] == nil {
		t.Errorf("sunder-bench -json -table 5: top-level keys %v, want options + table5", doc5)
	}
	// Studies without JSON rows are a usage error, not a silent substitution.
	if out := runFails(t, bench, "-json", "-ablations"); !strings.Contains(out, "-json") {
		t.Errorf("sunder-bench -json -ablations:\n%s", out)
	}
	// The retired study modes, the fault study and the retired in-process
	// cluster are deleted, not hidden: undefined flags.
	serve := buildTool(t, dir, "sunder/cmd/sunder-serve")
	for _, c := range []struct{ bin, flag string }{
		{bench, "-meta"}, {bench, "-faults"}, {sim, "-faults"},
		{serve, "-loadgen"}, {serve, "-cluster"}, {serve, "-replicas"}, {serve, "-seed"},
	} {
		if out := runFails(t, c.bin, c.flag); !strings.Contains(out, "flag provided but not defined") {
			t.Errorf("%s %s: want an undefined-flag error:\n%s", c.bin, c.flag, out)
		}
	}

	gen := buildTool(t, dir, "sunder/cmd/sunder-gen")
	suiteDir := filepath.Join(dir, "suite")
	out = run(t, gen, "-out", suiteDir, "-benchmark", "Bro217", "-scale", "0.01", "-input", "2000")
	if !strings.Contains(out, "Bro217.anml") {
		t.Errorf("sunder-gen:\n%s", out)
	}
	// The generated ANML must load back through the compiler CLI.
	out = run(t, compile, "-anml", filepath.Join(suiteDir, "Bro217.anml"), "-rate", "1")
	if !strings.Contains(out, "8-bit (input)") {
		t.Errorf("sunder-compile -anml:\n%s", out)
	}
}
