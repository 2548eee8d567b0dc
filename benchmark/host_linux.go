package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// dieWithParent has the kernel kill the child should the benchmark be
// killed before it can do so itself.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// procRSS returns a live process's current and peak resident set in MB.
func procRSS(pid int) (rssMB, peakMB float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	field := func(key string) float64 {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, key+":"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				return kb / 1024
			}
		}
		return 0
	}
	return field("VmRSS"), field("VmHWM"), nil
}

// resetPeakRSS restarts this process's peak-RSS mark at its current
// RSS (clear_refs 5), so that the peak a run reports is the passes' and
// not set-up's. Where the kernel refuses, the peak stays the process's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// selfCPU returns the user+system CPU time this process has consumed.
func selfCPU() time.Duration { return procCPU(0) }

// procCPU returns the CPU time all threads of process pid (0: this one)
// have consumed, from the process's CPU-time clock: nanoseconds where
// /proc/pid/stat has ticks. 0 when the process is gone.
func procCPU(pid int) time.Duration {
	const cpuclockSched = 2 // clock id (^pid<<3 | CPUCLOCK_SCHED), see clock_getcpuclockid(3)
	clock := uintptr(^pid<<3 | cpuclockSched)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuSet is a sched_setaffinity mask: CPUs 0..1023.
type cpuSet [16]uint64

func maskOf(cpus []int) (m cpuSet) {
	for _, c := range cpus {
		if c >= 0 && c < 64*len(m) {
			m[c/64] |= 1 << (c % 64)
		}
	}
	return m
}

func (m *cpuSet) list() []int {
	var cpus []int
	for c := 0; c < 64*len(m); c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// threadCPUs returns the CPUs thread tid (0: the calling thread) may run on.
func threadCPUs(tid int) ([]int, error) {
	var m cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil, errno
	}
	return m.list(), nil
}

func setThreadCPUs(tid int, cpus []int) error {
	m := maskOf(cpus)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return errno
	}
	return nil
}

// allowedCPUs returns the CPUs this process may run on; nil where the
// kernel does not say.
func allowedCPUs() []int {
	cpus, _ := threadCPUs(0) // nil on error: the caller then pins nothing
	return cpus
}

// startOn starts cmd confined to cpus: a child inherits the affinity of
// the thread that forks it, so the calling thread takes the mask for the
// length of the fork. With no cpus it is cmd.Start.
func startOn(cmd *exec.Cmd, cpus []int) error {
	if len(cpus) == 0 {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := threadCPUs(0)
	if err != nil {
		return cmd.Start()
	}
	if err := setThreadCPUs(0, cpus); err != nil {
		return cmd.Start()
	}
	defer setThreadCPUs(0, old)
	return cmd.Start()
}

// confineSelf moves every thread of this process onto cpus. Threads the
// runtime starts later inherit the mask from the thread that starts
// them, so the second sweep catches what the first raced with.
func confineSelf(cpus []int) error {
	for range 2 {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setThreadCPUs(tid, cpus); err != nil && err != syscall.ESRCH {
				return err
			}
		}
	}
	return nil
}

// idleSpin is the body of a spinner process (-idle-spin): it enters the
// idle scheduling class, in which it runs only while nothing else wants
// the core and is preempted the moment something does, and then never
// sleeps. It refuses to spin at any other priority.
func idleSpin() int {
	const schedIdle = 5
	runtime.LockOSThread()
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: idle scheduling class refused:", errno)
		return 1
	}
	for {
	}
}
