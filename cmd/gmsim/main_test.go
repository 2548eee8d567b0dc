package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"graphmem/internal/check"
	"graphmem/internal/harness"
	"graphmem/internal/obs"
	"graphmem/internal/sample"
	"graphmem/internal/sim"
)

// buildGmsim builds the tool into a temporary directory.
func buildGmsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gmsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// wantExit1 runs bin with args and checks that it exits 1 with exactly
// want on stderr and nothing on stdout.
func wantExit1(t *testing.T, name, bin string, args []string, want string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Errorf("%s: exit %v, want status 1", name, err)
	}
	if stderr.String() != want || stdout.Len() != 0 {
		t.Errorf("%s:\nstderr %q\n  want %q\nstdout %q", name, stderr.String(), want, stdout.String())
	}
}

// TestModeRejectionsSurfaceValidateText builds gmsim and drives the
// rejected cells of the mode matrix (internal/harness TestModeMatrix)
// through its flags: each exits 1 printing exactly the reason
// sim.Config.Validate (or Cacheable) states — the tool keeps no rule
// list of its own — and an accepted cell still runs. Store x 4 cores is
// one: the run goes through the workbench like a single-core one, so a
// second invocation prints the same report from the store without
// simulating. A run that exits 1 still writes its profiles.
func TestModeRejectionsSurfaceValidateText(t *testing.T) {
	bin := buildGmsim(t)
	plan, err := sample.ParsePlan("50000,2000,10000")
	if err != nil {
		t.Fatal(err)
	}
	sampled := func(cores int) sim.Config {
		c := sim.TableI(cores)
		c.Sampling.Plan = plan
		return c
	}
	reason := func(err error) string {
		if err == nil {
			t.Fatal("the library accepts a cell this test expects rejected")
		}
		return "gmsim: " + err.Error() + "\n"
	}
	scaled := func(o harness.RunOptions) error {
		_, err := o.ScaleProfile()
		return err
	}
	point := []string{"-kernel", "triad", "-graph", "reg", "-warmup", "50000", "-measure", "100000"}
	sampleFlag := []string{"-sample", "50000,2000,10000"}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"sample x check", append(sampleFlag, "-check", "oracle"), reason(sampled(1).WithCheck(check.OracleOnly).Validate())},
		{"sample x epochs", append(sampleFlag, "-epoch", "20000"), reason(sampled(1).WithEpochInterval(20000).Validate())},
		{"sample x recorder", append(sampleFlag, "-fr", filepath.Join(t.TempDir(), "fr.json")), reason(sampled(1).WithFlightRecorder(0).Validate())},
		{"sample x 4 cores", append(sampleFlag, "-cores", "4"), reason(sampled(4).Validate())},
		{"unknown preset", []string{"-pf", "warp"}, reason(sim.TableI(1).WithPrefetchers("warp").Validate())},
		{"negative epoch", []string{"-epoch", "-1"}, reason(sim.TableI(1).WithEpochInterval(-1).Validate())},
		{"negative frint", []string{"-fr", filepath.Join(t.TempDir(), "fr.json"), "-frint", "-1"}, reason(sim.TableI(1).WithFlightRecorder(-1).Validate())},
		// Negative windows and -j are refused, not read as "unset".
		{"negative warmup", []string{"-warmup", "-5"}, reason(scaled(harness.RunOptions{Warmup: -5}))},
		{"negative measure", []string{"-measure", "-5"}, reason(scaled(harness.RunOptions{Measure: -5}))},
		{"negative -j", []string{"-j", "-1"}, reason(scaled(harness.RunOptions{Jobs: -1}))},
	}
	for _, tc := range cases {
		wantExit1(t, tc.name, bin, append(point, tc.args...), tc.want)
	}

	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	wantExit1(t, "profiled unknown preset", bin, append(point, "-pf", "warp", "-cpuprofile", cpu, "-memprofile", mem),
		reason(sim.TableI(1).WithPrefetchers("warp").Validate()))
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("a run that exits 1 left %s unwritten or empty: %v", filepath.Base(path), err)
		}
	}

	out, err := exec.Command(bin, append(point, sampleFlag...)...).Output()
	if err != nil || !strings.Contains(string(out), "sampling    ") {
		t.Errorf("accepted sampled run: err %v, output\n%s", err, out)
	}

	stored := append(point, "-cores", "4", "-store", t.TempDir())
	var reports, summaries [2]bytes.Buffer
	for i := range reports {
		cmd := exec.Command(bin, stored...)
		cmd.Stdout, cmd.Stderr = &reports[i], &summaries[i]
		if err := cmd.Run(); err != nil {
			t.Fatalf("store x 4 cores, run %d: %v\n%s", i, err, summaries[i].String())
		}
	}
	if !strings.Contains(reports[0].String(), "core   3    instructions ") || reports[0].String() != reports[1].String() {
		t.Errorf("store x 4 cores: reports differ or lack core 3:\n%s\n%s", reports[0].String(), reports[1].String())
	}
	if cold, warm := summaries[0].String(), summaries[1].String(); !strings.Contains(cold, "hits=0 misses=1 ") || !strings.Contains(warm, "hits=1 misses=0 ") {
		t.Errorf("store x 4 cores: want a miss then a hit that simulates nothing, got\n%s%s", cold, warm)
	}
}

// TestToolRulesRefuseDroppedFlags: flags gmsim's report would silently
// drop are refused with exit 1. These are the tool's own rules, not
// Validate's.
func TestToolRulesRefuseDroppedFlags(t *testing.T) {
	bin := buildGmsim(t)
	point := []string{"-kernel", "triad", "-graph", "reg", "-warmup", "50000", "-measure", "100000"}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"-frint without -fr", []string{"-frint", "1000"}, "gmsim: -frint needs -fr\n"},
		{"-epoch with -cores 2", []string{"-epoch", "20000", "-cores", "2"}, "gmsim: -epoch is not supported with -cores > 1\n"},
		{"-json with -cores 2", []string{"-json", "-cores", "2"}, "gmsim: -json and -fr are not supported with -cores > 1\n"},
	} {
		wantExit1(t, tc.name, bin, append(point, tc.args...), tc.want)
	}
}

// TestUnknownNamesExit1: every name a run flag gives resolves before the
// first graph build, and one that names nothing exits 1 with a gmsim:
// line, not a panic.
func TestUnknownNamesExit1(t *testing.T) {
	bin := buildGmsim(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-kernel", "prr"}, "gmsim: unknown workload prr.kron\n"},
		{[]string{"-graph", "krom"}, "gmsim: unknown workload pr.krom\n"},
		{[]string{"-kernel", "triad", "-graph", "kron"}, "gmsim: unknown workload triad.kron\n"},
		{[]string{"-kernel", "pr", "-graph", "reg"}, "gmsim: unknown workload pr.reg\n"},
		{[]string{"-config", "warp"}, "gmsim: unknown config \"warp\" (baseline|sdclp|topt|adaptive|distill|l1diso|2xllc|expert|victim|rrip|bypass)\n"},
		{[]string{"-config", "popt"}, "gmsim: unknown config \"popt\" (baseline|sdclp|topt|adaptive|distill|l1diso|2xllc|expert|victim|rrip|bypass)\n"},
		{[]string{"-pf", "warp"}, "gmsim: sim: unknown prefetcher preset \"warp\" (want none|nextline|spp|stride|imp|pickle|spp+imp)\n"},
	} {
		wantExit1(t, strings.Join(tc.args, " "), bin, append([]string{"-warmup", "1000", "-measure", "1000"}, tc.args...), tc.want)
	}
}

// TestManifestNamesTheMachine: the -json config block tells apart the
// machines the run flags select, not only the run key — the prefetcher
// preset, the branch-miss penalty and the LLC policy each appear.
func TestManifestNamesTheMachine(t *testing.T) {
	bin := buildGmsim(t)
	out, err := exec.Command(bin, "-kernel", "pr", "-graph", "kron", "-profile", "bench",
		"-warmup", "20000", "-measure", "20000", "-pf", "none", "-bp", "14", "-config", "topt", "-json").Output()
	if err != nil {
		t.Fatalf("gmsim: %v", err)
	}
	if !json.Valid(out) {
		t.Fatalf("manifest is not JSON:\n%s", out)
	}
	for _, field := range []string{`"prefetchers": "none"`, `"branch_miss_penalty": 14`, `"llc_policy": "topt"`} {
		if !bytes.Contains(out, []byte(field)) {
			t.Errorf("manifest lacks %s", field)
		}
	}
}

// TestGraphCacheCrossesProcesses: the first gmsim builds the bench kron
// and publishes it to the graph cache, the next reads it. Both say so on
// -v and in the -json manifest, and their reports are byte-identical.
func TestGraphCacheCrossesProcesses(t *testing.T) {
	bin := buildGmsim(t)
	cacheHome := t.TempDir()
	run := func(extra ...string) (stdout, stderr string) {
		t.Helper()
		var out, errOut bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-kernel", "pr", "-graph", "kron", "-config", "sdclp",
			"-profile", "bench", "-warmup", "20000", "-measure", "20000"}, extra...)...)
		cmd.Env = append(os.Environ(), "XDG_CACHE_HOME="+cacheHome)
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil {
			t.Fatalf("gmsim %v: %v\n%s", extra, err, errOut.String())
		}
		return out.String(), errOut.String()
	}
	loads := func(manifest string) []obs.GraphLoad {
		t.Helper()
		var m obs.Manifest
		if err := json.Unmarshal([]byte(manifest), &m); err != nil {
			t.Fatal(err)
		}
		return m.Graphs
	}
	first, firstLog := run("-json")
	second, secondLog := run("-json")
	text1, _ := run()
	text2, _ := run()
	for i, c := range []struct {
		manifest, log, source string
	}{{first, firstLog, "built"}, {second, secondLog, "read"}} {
		if l := loads(c.manifest); len(l) != 1 || l[0].Name != "kron" || l[0].Source != c.source || l[0].Seconds <= 0 {
			t.Errorf("run %d: manifest graphs %+v, want kron %s", i+1, l, c.source)
		}
		if c.log != "" {
			t.Errorf("run %d: stderr %q without -v", i+1, c.log)
		}
	}
	if text1 != text2 {
		t.Errorf("reports differ between a build and a read:\n%s\n%s", text1, text2)
	}
	if _, log := run("-v"); !strings.Contains(log, "graph kron (bench profile) read in ") {
		t.Errorf("-v does not report the read:\n%s", log)
	}
}
