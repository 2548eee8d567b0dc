package graph

import "testing"

// The three builds below are pinned in ci/bench_baseline.txt and gated
// by the bench-gate job: graph construction is the largest share of a
// cold run (ROADMAP item 1), one benchmark per generator family.

// BenchmarkBuildKron measures synthetic graph construction end to end
// (R-MAT edge generation plus the two-pass counting-sort CSR build); the
// harness runs it once per memoized graph.
func BenchmarkBuildKron(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Kron(16, 8, 42)
	}
}

// BenchmarkBuildUrand measures the uniform-random generator (cheaper
// edges, same CSR build).
func BenchmarkBuildUrand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Urand(1<<16, 8<<16, 42)
	}
}

// BenchmarkBuildPowerLaw measures the preferential-attachment
// generator in its Friendster regime (shuffled IDs: every scatter of
// the build misses), at the same 2^16 vertices.
func BenchmarkBuildPowerLaw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PowerLaw(1<<16, 8, 0.05, true, 42)
	}
}
