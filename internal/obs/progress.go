package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// progressWindow is the number of recent live runs the moving-average
// run time is computed over.
const progressWindow = 16

// Progress is the sweep progress reporter: experiments plan their live
// (not-yet-memoized) run counts up front, every simulation reports
// start/finish, and each finish emits one line with runs
// completed/total, the moving-average run time, the estimated time
// remaining and — under a parallel scheduler — the number of runs
// still in flight.
//
// Accounting protocol: Plan covers only runs that will actually
// execute; a cache hit self-plans by counting toward both done and
// total, so done/total stays consistent however much of a sweep an
// earlier experiment already memoized, and the ETA covers live work
// only. The ETA divides by the observed peak run concurrency, so it is
// wall-clock-correct under a worker pool and degrades to the
// sequential estimate at parallelism 1.
//
// All methods are safe for concurrent use. Lines are emitted while the
// reporter's lock is held so concurrent finishes cannot interleave;
// the out sink must therefore not call back into the reporter.
type Progress struct {
	mu  sync.Mutex
	out func(string)
	now func() time.Time

	// inflight/peak are the current and high-water number of started
	// but unfinished runs (atomic so StartRun stays lock-free).
	inflight atomic.Int32
	peak     atomic.Int32

	total  int
	done   int
	window [progressWindow]time.Duration
	wn, wi int
}

// NewProgress creates a reporter emitting lines to out; a nil out
// discards everything (the -q path) while still tracking counts.
func NewProgress(out func(string)) *Progress {
	return &Progress{out: out, now: time.Now}
}

// Plan registers n additional upcoming live runs. Experiments call it
// before their loops — with runs already memoized excluded — so ETAs
// cover the whole remaining sweep, not just the current loop.
func (p *Progress) Plan(n int) {
	p.mu.Lock()
	p.total += n
	p.mu.Unlock()
}

// Log emits a pass-through narration line (graph building etc.).
func (p *Progress) Log(msg string) {
	p.mu.Lock()
	p.emitLocked(msg)
	p.mu.Unlock()
}

// StartRun marks one run as started and returns its finish func; call
// the returned func with a short result detail ("IPC=0.453") when the
// run completes. The finish func updates the moving average and emits
// the progress line. Runs may start and finish concurrently.
func (p *Progress) StartRun(label string) func(detail string) {
	start := p.now()
	n := p.inflight.Add(1)
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	return func(detail string) {
		d := p.now().Sub(start)
		p.inflight.Add(-1)
		p.mu.Lock()
		p.done++
		p.window[p.wi] = d
		p.wi = (p.wi + 1) % progressWindow
		if p.wn < progressWindow {
			p.wn++
		}
		p.emitLocked(p.lineLocked(label, detail, d, false))
		p.mu.Unlock()
	}
}

// Cached marks one run as satisfied from the memo cache (or joined
// onto an identical in-flight run): it counts toward done and total —
// cache hits are never planned — and leaves the run-time average
// alone.
func (p *Progress) Cached(label, detail string) {
	p.mu.Lock()
	p.done++
	p.total++
	p.emitLocked(p.lineLocked(label, detail, 0, true))
	p.mu.Unlock()
}

// InFlight returns the number of currently started but unfinished runs.
func (p *Progress) InFlight() int { return int(p.inflight.Load()) }

// Peak returns the most runs that were ever in flight at once.
func (p *Progress) Peak() int { return int(p.peak.Load()) }

// Snapshot returns completed/total counts and the current moving
// average and ETA (both zero until a live run finished or when no runs
// remain).
func (p *Progress) Snapshot() (done, total int, avg, eta time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done, p.total, p.avgLocked(), p.etaLocked()
}

func (p *Progress) avgLocked() time.Duration {
	if p.wn == 0 {
		return 0
	}
	var sum time.Duration
	for i := 0; i < p.wn; i++ {
		sum += p.window[i]
	}
	return sum / time.Duration(p.wn)
}

// etaLocked estimates the remaining wall clock: remaining runs times
// the per-run moving average, divided by the observed run concurrency
// (the worker-pool width once the pool has filled). The divisor takes
// the max of peak and the current inflight count: peak is published by
// a CompareAndSwap in StartRun that can still be in flight when the
// first run finishes, so peak alone can lag the ramp-up (or even read
// 0) and overestimate the ETA.
func (p *Progress) etaLocked() time.Duration {
	avg := p.avgLocked()
	remaining := p.total - p.done
	if avg <= 0 || remaining <= 0 {
		return 0
	}
	workers := max(int(p.peak.Load()), int(p.inflight.Load()), 1)
	if eta := avg * time.Duration(remaining) / time.Duration(workers); eta > 0 {
		return eta
	}
	// Clamped: an over-counted sweep (duplicate Cached calls) or a
	// degenerate average must never surface a negative ETA.
	return 0
}

func (p *Progress) emitLocked(line string) {
	if p.out != nil {
		p.out(line)
	}
}

func (p *Progress) lineLocked(label, detail string, d time.Duration, cached bool) string {
	totalStr := "?"
	if p.total > 0 {
		totalStr = fmt.Sprint(p.total)
	}
	line := fmt.Sprintf("[%3d/%s] %s", p.done, totalStr, label)
	if detail != "" {
		line += " " + detail
	}
	if cached {
		return line + " (cached)"
	}
	line += fmt.Sprintf(" | %s", fmtDuration(d))
	if avg := p.avgLocked(); avg > 0 {
		line += fmt.Sprintf(" | avg %s", fmtDuration(avg))
		// The ETA is hidden until two live runs have finished: a
		// single-sample moving average is noise, and flashing a wild
		// first estimate costs more trust than showing nothing.
		if eta := p.etaLocked(); eta > 0 && p.wn >= 2 {
			line += fmt.Sprintf(" | eta %s", fmtDuration(eta))
		}
	}
	if running := p.inflight.Load(); running > 0 {
		line += fmt.Sprintf(" | %d in flight", running)
	}
	return line
}

// fmtDuration renders a duration at human sweep granularity.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Truncate(time.Second).String()
	case d >= time.Second:
		return d.Truncate(100 * time.Millisecond).String()
	default:
		return d.Truncate(time.Millisecond).String()
	}
}
