package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"graphmem"
)

// TestModeRejectionsSurfaceValidateText builds gmsim and drives the
// rejected cells of the mode matrix (internal/harness TestModeMatrix)
// through its flags: each exits 1 printing exactly the reason
// sim.Config.Validate (or Cacheable) states — the tool keeps no rule
// list of its own — and an accepted cell still runs. Store x 4 cores is
// one: the run goes through the workbench like a single-core one, so a
// second invocation prints the same report from the store without
// simulating.
func TestModeRejectionsSurfaceValidateText(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "gmsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	plan, err := graphmem.ParseSamplePlan("50000,2000,10000")
	if err != nil {
		t.Fatal(err)
	}
	sampled := func(cores int) graphmem.Config {
		c := graphmem.TableI(cores)
		c.Sampling.Plan = plan
		return c
	}
	reason := func(err error) string {
		if err == nil {
			t.Fatal("the library accepts a cell this test expects rejected")
		}
		return "gmsim: " + err.Error() + "\n"
	}
	point := []string{"-kernel", "triad", "-graph", "reg", "-warmup", "50000", "-measure", "100000"}
	sample := []string{"-sample", "50000,2000,10000"}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"sample x check", append(sample, "-check", "oracle"), reason(sampled(1).WithCheck(graphmem.CheckOracle).Validate())},
		{"sample x epochs", append(sample, "-epoch", "20000"), reason(sampled(1).WithEpochInterval(20000).Validate())},
		{"sample x recorder", append(sample, "-fr", filepath.Join(t.TempDir(), "fr.json")), reason(sampled(1).WithFlightRecorder(0).Validate())},
		{"sample x 4 cores", append(sample, "-cores", "4"), reason(sampled(4).Validate())},
		{"ckpt without sample", []string{"-ckpt", t.TempDir()}, reason(graphmem.TableI(1).WithCheckpointStore(new(graphmem.CheckpointStore), "").Validate())},
		{"unknown preset", []string{"-pf", "warp"}, reason(graphmem.TableI(1).WithPrefetchers("warp").Validate())},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, append(point, tc.args...)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("%s: exit %v, want status 1", tc.name, err)
		}
		if stderr.String() != tc.want || stdout.Len() != 0 {
			t.Errorf("%s:\nstderr %q\n  want %q\nstdout %q", tc.name, stderr.String(), tc.want, stdout.String())
		}
	}

	out, err := exec.Command(bin, append(point, sample...)...).Output()
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
