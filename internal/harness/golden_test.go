package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"graphmem/internal/check"
	"graphmem/internal/sim"
)

// TestTab1GoldenBench pins the rendered Table I report for the bench
// profile byte-for-byte; the CI golden-report gate diffs the gmreport
// output against the same file. Regenerate deliberately with:
//
//	gmreport -exp tab1 -profile bench -q > internal/harness/testdata/tab1_bench.golden
func TestTab1GoldenBench(t *testing.T) {
	var buf bytes.Buffer
	NewWorkbench(Bench()).Tab1().Render(&buf)

	golden := filepath.Join("testdata", "tab1_bench.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("tab1 bench report diverged from %s.\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestNamedMachinesCheckClean runs every machine of the name table under
// the full differential checker on cc.kron, which gathers from its first
// record, so the data paths each machine adds (bypass, victim, SDC,
// Distill WOC, the LLC policies) carry checked loads: a machine added to
// the table is covered by construction. bfs.urand adds the arms cc.kron
// never reaches in this window, the bypass machine's LLC hits among
// them. Each run also keeps the first conservation law: every load the
// core retires is served by exactly one level, so the Served* counters
// sum to Loads.
func TestNamedMachinesCheckClean(t *testing.T) {
	p := fastBench()
	p.Warmup, p.Measure = 50_000, 150_000
	wb := NewWorkbench(p)
	wb.CheckLevel = check.Full
	base := wb.Profile.BaseConfig(1)
	for _, id := range []WorkloadID{{Kernel: "cc", Graph: "kron"}, {Kernel: "bfs", Graph: "urand"}} {
		for _, m := range machines {
			res := wb.RunSingle(m.v(base), id)
			c, s := res.Check, res.Stats
			if c.LoadsChecked == 0 || c.Violations != 0 {
				t.Errorf("%s on %s: %d loads checked, %d violations, first: %v", m.name, id, c.LoadsChecked, c.Violations, c.Details[:min(1, len(c.Details))])
			}
			if served := s.ServedL1D + s.ServedSDC + s.ServedL2 + s.ServedLLC + s.ServedRemote + s.ServedDRAM; served != s.Loads {
				t.Errorf("%s on %s: loads served by a level sum to %d, want Loads = %d", m.name, id, served, s.Loads)
			}
		}
	}
}

// TestNamedConfigsGolden pins, byte for byte, the result of every
// machine a tool can name — each ConfigByName config plus the
// branch-miss sensitivity row — at fastBench windows: IPC, cycles, DRAM
// reads and a digest of the whole encoded Result. The Table I, prefetch
// and sampling goldens pin only the Baseline/SDC+LP family; this one
// also covers the LLC policies, Distill, the victim cache, bypass,
// adaptive τ, Expert, 2xLLC and L1D-ISO. pr.kron's short window is
// still its sequential initialization, where most machines tie on IPC
// (the digest still tells them apart); cc.kron gathers from its first
// record, so there each machine's own policy shows in the headline
// numbers. On a deliberate change, the failure prints the new file's
// content.
func TestNamedConfigsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("26 simulations")
	}
	wb := NewWorkbench(fastBench())
	base := wb.Profile.BaseConfig(1)
	type named struct {
		name string
		cfg  sim.Config
	}
	var cfgs []named
	for _, n := range ConfigNames() {
		cfg, err := ConfigByName(base, n)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, named{n, cfg})
	}
	cfgs = append(cfgs, named{"bp14", base.WithBranchMissPenalty(14)})

	var buf bytes.Buffer
	for _, id := range []WorkloadID{{Kernel: "pr", Graph: "kron"}, {Kernel: "cc", Graph: "kron"}} {
		for _, c := range cfgs {
			res := wb.RunSingle(c.cfg, id)
			enc, err := sim.EncodeResult(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(enc)
			fmt.Fprintf(&buf, "%s %-9s ipc=%.6f cycles=%d dram_reads=%d result=%x\n",
				id, c.name, res.IPC(), res.Stats.Cycles, res.Stats.DRAMReads, sum[:8])
		}
	}

	golden := filepath.Join("testdata", "named_configs.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden: %v\ngot:\n%s", err, buf.Bytes())
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("named-config results diverged from %s.\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}
