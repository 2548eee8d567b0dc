package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGate(t *testing.T) {
	const threshold, slack = 0.10, 0.5
	for _, tc := range []struct {
		name     string
		baseline string // rows of the baseline file
		bench    string // go test -bench output
		failed   bool
		want     string // one line of the report
	}{{
		name:     "within threshold",
		baseline: "A 100 2\n",
		bench:    "BenchmarkA-8 1000 105 ns/op 0 B/op 2 allocs/op\n",
		want:     "A                                   105 ns/op  (baseline 100, +5.0%)  2 allocs/op  OK",
	}, {
		name:     "missing baseline row fails",
		baseline: "A 100 0\nB 50 0\n",
		bench:    "BenchmarkA 1000 100 ns/op\n",
		failed:   true,
		want:     "B                            MISSING (baseline 50 ns/op)",
	}, {
		name:     "any allocs growth fails",
		baseline: "A 100 2\n",
		bench:    "BenchmarkA 1000 90 ns/op 0 B/op 3 allocs/op\n",
		failed:   true,
		want:     "A                                    90 ns/op  (baseline 100, -10.0%)  3 allocs/op  REGRESSION",
	}, {
		name:     "time regression over threshold and slack fails",
		baseline: "A 100 0\n",
		bench:    "BenchmarkA 1000 120 ns/op\n",
		failed:   true,
		want:     "A                                   120 ns/op  (baseline 100, +20.0%)  0 allocs/op  REGRESSION",
	}, {
		name:     "time regression over threshold within slack passes",
		baseline: "A 1 0\n",
		bench:    "BenchmarkA 1000 1.4 ns/op\n",
		want:     "A                                   1.4 ns/op  (baseline 1, +40.0%)  0 allocs/op  OK",
	}, {
		name:     "rows absent from the baseline are informational",
		baseline: "A 100 0\n",
		bench:    "BenchmarkA 1000 100 ns/op\nBenchmarkNew 1000 7 ns/op 0 B/op 9 allocs/op\n",
		want:     "New                                   7 ns/op  NEW (not in baseline; add with -update)",
	}, {
		name:     "GOMAXPROCS suffix is stripped",
		baseline: "Build-ish 100 0\n",
		bench:    "BenchmarkBuild-ish-16 1000 100 ns/op\n",
		want:     "Build-ish                           100 ns/op  (baseline 100, +0.0%)  0 allocs/op  OK",
	}, {
		name:     "median of an even count is the mean of the middle two",
		baseline: "A 100 0\n",
		bench: "BenchmarkA-2 1000 90 ns/op\nBenchmarkA-2 1000 500 ns/op\n" +
			"BenchmarkA-2 1000 100 ns/op\nBenchmarkA-2 1000 1 ns/op\n",
		want: "A                                    95 ns/op  (baseline 100, -5.0%)  0 allocs/op  OK",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := readBaseline(writeFile(t, "baseline.txt", "# header\n"+tc.baseline))
			if err != nil {
				t.Fatal(err)
			}
			results, order, err := parseBench(strings.NewReader("pkg: graphmem/x\n" + tc.bench + "PASS\n"))
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if failed := gate(&out, results, order, base, threshold, slack); failed != tc.failed {
				t.Errorf("failed = %v, want %v", failed, tc.failed)
			}
			if !strings.Contains(out.String(), tc.want+"\n") {
				t.Errorf("report lacks %q:\n%s", tc.want, out.String())
			}
		})
	}
}

// TestUpdateKeepsHeader: -update rewrites the rows and leaves the
// file's leading comment block, blank lines and trailing spaces
// included, byte for byte.
func TestUpdateKeepsHeader(t *testing.T) {
	const header = "# Custom baseline header.\n#   go test -p 1 -bench . > bench.out  \n\n# A note on hand-pinned rows.\n"
	path := writeFile(t, "baseline.txt", header+"Old 1 0\nA 2 0\n")
	results, order, err := parseBench(strings.NewReader(
		"BenchmarkA-8 10 30 ns/op 0 B/op 1 allocs/op\nBenchmarkB-8 10 4.25 ns/op 0 B/op 0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := updateBaseline(path, results, order); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := header + "A 30 1\nB 4.25 0\n"; string(got) != want {
		t.Errorf("updated baseline:\n%q\nwant:\n%q", got, want)
	}
}
