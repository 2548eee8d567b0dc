package sim

import (
	"reflect"
	"testing"

	"graphmem/internal/check"
	"graphmem/internal/mem"
)

// kronWorkloadSlot prepares a kernel in the given core slot's address
// window (multi-core checked runs).
func kronWorkloadSlot(t testing.TB, kernel string, scale, slot int) Workload {
	t.Helper()
	g := testGraphCache(scale)
	space := mem.NewSpace(slot)
	inst := buildKernel(kernel, g, space)
	return Workload{Name: kernel + ".kron", Inst: inst, Space: space}
}

// checkedCfg shrinks the windows so full-check runs stay fast while
// still exercising every serve path many thousands of times.
func checkedCfg() Config {
	return TableI(1).BenchScale().WithWindows(200_000, 1_000_000)
}

func TestCheckedRunBaselineClean(t *testing.T) {
	res := RunSingleCore(checkedCfg().WithCheck(check.Full), kronWorkload(t, "pr", 19))
	if res.Check.Violations != 0 {
		t.Fatalf("baseline full-check run found %d violations; first: %v",
			res.Check.Violations, res.Check.Details)
	}
	if res.Check.LoadsChecked == 0 || res.Check.StoresTracked == 0 {
		t.Fatalf("oracle saw no traffic: %+v", res.Check)
	}
	if res.Check.Sweeps == 0 {
		t.Fatal("full-check run performed no invariant sweeps")
	}
}

func TestCheckedRunSDCLPClean(t *testing.T) {
	for _, kernel := range []string{"pr", "cc"} {
		res := RunSingleCore(checkedCfg().WithSDCLP().WithCheck(check.Full), kronWorkload(t, kernel, 19))
		if res.Check.Violations != 0 {
			t.Fatalf("%s: SDC+LP full-check run found %d violations; first: %v",
				kernel, res.Check.Violations, res.Check.Details)
		}
		if res.Check.LoadsChecked == 0 {
			t.Fatalf("%s: oracle saw no loads", kernel)
		}
	}
}

func TestCheckedRunVictimCacheClean(t *testing.T) {
	res := RunSingleCore(checkedCfg().WithVictimCache(64).WithCheck(check.Full), kronWorkload(t, "pr", 19))
	if res.Check.Violations != 0 {
		t.Fatalf("victim-cache full-check run found %d violations; first: %v",
			res.Check.Violations, res.Check.Details)
	}
}

func TestCheckedMultiCoreClean(t *testing.T) {
	cfg := TableI(2).BenchScale().WithWindows(100_000, 400_000).WithSDCLP().WithCheck(check.Full)
	ws := []Workload{kronWorkload(t, "pr", 18), kronWorkloadSlot(t, "cc", 18, 1)}
	res := RunMultiCore(cfg, ws)
	if res.Check.Violations != 0 {
		t.Fatalf("multi-core full-check run found %d violations; first: %v",
			res.Check.Violations, res.Check.Details)
	}
	if res.Check.LoadsChecked == 0 {
		t.Fatal("oracle saw no loads")
	}
}

// TestCheckOffIsBitIdentical pins the harness's zero-perturbation
// property: a checked run must produce exactly the counters of an
// unchecked one, because the checker only reads through stat-free
// accessors.
func TestCheckOffIsBitIdentical(t *testing.T) {
	cfg := checkedCfg().WithSDCLP()
	off := RunSingleCore(cfg, kronWorkload(t, "pr", 19))
	full := RunSingleCore(cfg.WithCheck(check.Full), kronWorkload(t, "pr", 19))
	if !reflect.DeepEqual(off.Stats, full.Stats) {
		t.Fatalf("checked run perturbed the measured counters:\noff:  %+v\nfull: %+v",
			off.Stats, full.Stats)
	}
}

// TestBrokenSDCDirInvalCaught proves the oracle catches the bug class
// it exists for: with the fault-injection hook set, the L1 pull path
// leaves a stale untracked SDC copy behind, and a full run must flag
// it. cc (label propagation) loads and stores the same label array
// within one pass, so averse reads re-touch freshly stored blocks.
func TestBrokenSDCDirInvalCaught(t *testing.T) {
	cfg := checkedCfg().WithSDCLP().WithCheck(check.Full)
	cfg.BreakSDCDirInval = true
	res := RunSingleCore(cfg, kronWorkload(t, "cc", 19))
	if res.Check.Violations == 0 {
		t.Fatal("fault-injected run reported zero violations; the oracle is blind")
	}
	if len(res.Check.Details) == 0 {
		t.Fatal("violations counted but no details retained")
	}
}

// TestBrokenSDCDirInvalCaughtDirect drives the minimal failing
// sequence by hand: averse read fills the SDC, a friendly store pulls
// the block into the L1 (leaving, under the fault, a stale untracked
// SDC copy), and the next averse read consumes the stale copy. Both
// the load oracle and the structural sweep must flag it.
func TestBrokenSDCDirInvalCaughtDirect(t *testing.T) {
	cfg := TableI(1).WithSDCLP().WithCheck(check.Full)
	cfg.BreakSDCDirInval = true
	sys := NewSystem(cfg, make([]Workload, 1))
	c := sys.cores[0]
	addr := mem.Addr(0x10000)
	blk := addr.Block()

	c.sdcAccess(blk, addr, 8, false, 0)    // averse read: SDC owns v1
	c.l1Access(blk, addr, 8, true, 1000)   // friendly store: pulled to L1 at v2, stale SDC copy left
	c.sdcAccess(blk, addr, 8, false, 2000) // averse read: served from the stale copy
	loadViolations := sys.Checker().Violations()
	if loadViolations == 0 {
		t.Fatal("stale SDC serve not flagged by the load oracle")
	}
	sys.CheckInvariants()
	if sys.Checker().Violations() == loadViolations {
		t.Fatal("untracked SDC copy not flagged by the structural sweep")
	}
}

// TestL1PullLeavesNoStaleCopy is the mirror image: without the fault,
// the same sequence must be perfectly clean.
func TestL1PullLeavesNoStaleCopy(t *testing.T) {
	cfg := TableI(1).WithSDCLP().WithCheck(check.Full)
	sys := NewSystem(cfg, make([]Workload, 1))
	c := sys.cores[0]
	addr := mem.Addr(0x10000)
	blk := addr.Block()

	c.sdcAccess(blk, addr, 8, false, 0)
	c.l1Access(blk, addr, 8, true, 1000)
	c.sdcAccess(blk, addr, 8, false, 2000)
	sys.CheckInvariants()
	if n := sys.Checker().Violations(); n != 0 {
		t.Fatalf("clean sequence produced %d violations: %v", n, sys.Checker().Details())
	}
}
