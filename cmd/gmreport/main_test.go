package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// buildGmreport builds the tool into a fresh temporary directory.
func buildGmreport(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gmreport")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestRefusesBadFlagsBeforeRunning: an unknown experiment id anywhere in
// -exp, or a negative -mixes, exits 1 with a message before the first
// experiment runs, so stdout stays empty (tab1 would otherwise print
// its table first).
func TestRefusesBadFlagsBeforeRunning(t *testing.T) {
	bin := buildGmreport(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "tab1,fgi8"}, "gmreport: unknown experiment \"fgi8\"\n"},
		{[]string{"-exp", "tab1, all"}, "gmreport: unknown experiment \"all\"\n"},
		{[]string{"-exp", "tab1", "-mixes", "-1"}, "gmreport: negative -mixes -1\n"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, append(tc.args, "-profile", "bench", "-q")...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("%v: exit %v, want status 1", tc.args, err)
		}
		if stderr.String() != tc.want || stdout.Len() != 0 {
			t.Errorf("%v:\nstderr %q\n  want %q\nstdout %q", tc.args, stderr.String(), tc.want, stdout.String())
		}
	}
}

// TestOutWritesEachTable: -out publishes each table as <id>.txt (the
// bytes printed on stdout) and <id>.csv, plus manifest.json, every file
// mode 0644 and no temp file left beside them. tab1 and tab4 simulate
// nothing.
func TestOutWritesEachTable(t *testing.T) {
	bin := buildGmreport(t)
	dir := filepath.Join(t.TempDir(), "out")
	cmd := exec.Command(bin, "-exp", "tab1,tab4", "-profile", "bench", "-q", "-out", dir)
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("gmreport: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != 0o644 {
			t.Errorf("%s: mode %v, want 0644", e.Name(), fi.Mode().Perm())
		}
	}
	want := []string{"manifest.json", "tab1.csv", "tab1.txt", "tab4.csv", "tab4.txt"}
	if !slices.Equal(names, want) {
		t.Fatalf("-out wrote %v, want %v", names, want)
	}
	var txt []byte
	for _, name := range []string{"tab1.txt", "tab4.txt"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		txt = append(txt, b...)
	}
	if !bytes.Equal(txt, stdout) {
		t.Errorf("the .txt tables differ from stdout:\n%s\n---\n%s", txt, stdout)
	}
}
