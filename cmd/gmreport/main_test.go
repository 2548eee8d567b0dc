package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestRefusesBadFlagsBeforeRunning: an unknown experiment id anywhere in
// -exp, or a negative -mixes, exits 1 with a message before the first
// experiment runs, so stdout stays empty (tab1 would otherwise print
// its table first).
func TestRefusesBadFlagsBeforeRunning(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "gmreport")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
