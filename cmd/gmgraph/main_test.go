package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"graphmem/internal/harness"
)

// buildGmgraph builds the tool into a temporary directory.
func buildGmgraph(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gmgraph")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestGmgraphRejectsOutOfRangeFlags: a -scale or -ef the generators
// cannot take exits 1 with a message, writes nothing, and never
// reaches the generator (where it would shift by a negative count or
// allocate a negative length).
func TestGmgraphRejectsOutOfRangeFlags(t *testing.T) {
	bin := buildGmgraph(t)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-gen", "kron", "-scale", "-1"}, "gmgraph: -scale -1 out of range [1, 30]\n"},
		{[]string{"-gen", "kron", "-scale", "31"}, "gmgraph: -scale 31 out of range [1, 30]\n"},
		{[]string{"-gen", "kron", "-scale", "8", "-ef", "-1"}, "gmgraph: -ef -1 must be at least 1\n"},
		{[]string{"-gen", "urand", "-scale", "8", "-ef", "-8"}, "gmgraph: -ef -8 must be at least 1\n"},
	}
	for _, tc := range cases {
		out := filepath.Join(t.TempDir(), "g.gmg")
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, append(tc.args, "-out", out)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("%v: exit %v, want status 1", tc.args, err)
		}
		if stderr.String() != tc.want || stdout.Len() != 0 {
			t.Errorf("%v:\nstderr %q\n  want %q\nstdout %q", tc.args, stderr.String(), tc.want, stdout.String())
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%v: wrote %s", tc.args, out)
		}
	}
}

// TestGmgraphGenStatsRoundTrip: a generated .gmg reads back through
// -stats with the vertex and edge counts -gen reported.
func TestGmgraphGenStatsRoundTrip(t *testing.T) {
	bin := buildGmgraph(t)
	path := filepath.Join(t.TempDir(), "kron.gmg")
	gen, err := exec.Command(bin, "-gen", "kron", "-scale", "10", "-ef", "4", "-out", path).Output()
	if err != nil {
		t.Fatalf("-gen: %v", err)
	}
	m := regexp.MustCompile(`^wrote .*: (\d+) vertices, (\d+) edges `).FindSubmatch(gen)
	if m == nil {
		t.Fatalf("-gen output %q", gen)
	}
	if string(m[1]) != "1024" {
		t.Errorf("-gen wrote %s vertices, want 1024", m[1])
	}
	stats, err := exec.Command(bin, "-stats", path).Output()
	if err != nil {
		t.Fatalf("-stats: %v", err)
	}
	want := fmt.Sprintf("vertices    %s\nedges       %s\n", m[1], m[2])
	if !bytes.HasPrefix(stats, []byte(want)) {
		t.Errorf("-stats output\n%s\nwant prefix\n%s", stats, want)
	}
}

// TestGmgraphGeneratesEveryGraphName: every name -gen's help lists (the
// Table III names, harness.GraphNames) has a generator, and an unknown
// one is refused with that list.
func TestGmgraphGeneratesEveryGraphName(t *testing.T) {
	for _, name := range harness.GraphNames {
		if g, err := generate(name, 8, 8, 42); err != nil || g.N == 0 {
			t.Errorf("-gen %s -scale 8: %v", name, err)
		}
	}
	want := `unknown generator "warp" (` + strings.Join(harness.GraphNames, "|") + ")"
	if _, err := generate("warp", 8, 8, 42); err == nil || err.Error() != want {
		t.Errorf("-gen warp: %v, want %s", err, want)
	}
}

// TestGmgraphRefusesBadInput: an edge list whose vertex count would
// overflow int32 and a .gmg of the format before the checksum each exit
// 1 with one line naming the fault; neither tears the .gmg already at
// -out, and a good -gen over it leaves no temp file beside it.
func TestGmgraphRefusesBadInput(t *testing.T) {
	bin := buildGmgraph(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "g.gmg")
	if err := exec.Command(bin, "-gen", "kron", "-scale", "8", "-out", out).Run(); err != nil {
		t.Fatalf("-gen: %v", err)
	}
	good, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	edges := filepath.Join(dir, "big.txt")
	old := filepath.Join(dir, "old.gmg")
	if err := os.WriteFile(edges, []byte("0 2147483647\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, append([]byte("GMGRPH01"), make([]byte, 17)...), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-convert", edges, "-out", out}, "gmgraph: graph: line 1: vertex id 2147483647 too large\n"},
		{[]string{"-stats", old}, "regenerate it with gmgraph"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, c.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: exit %v, stderr %q; want status 1 and %q", c.args, err, stderr.String(), c.want)
		}
	}
	if now, err := os.ReadFile(out); err != nil || !bytes.Equal(now, good) {
		t.Errorf("a refused -convert changed the file at -out (%v)", err)
	}
	if err := exec.Command(bin, "-gen", "urand", "-scale", "8", "-out", out).Run(); err != nil {
		t.Fatalf("-gen over a file: %v", err)
	}
	if now, err := os.ReadFile(out); err != nil || bytes.Equal(now, good) {
		t.Errorf("-gen urand over kron's file: %v, file unchanged %v", err, bytes.Equal(now, good))
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 3 {
		t.Errorf("%d files beside the output, want 3 (no temp file)", len(ents))
	}
}
