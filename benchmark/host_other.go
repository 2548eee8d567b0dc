//go:build !linux

package main

import (
	"errors"
	"os/exec"
	"time"
)

// The benchmark's memory and CPU numbers are taken on Linux (/proc,
// rusage, Pdeathsig); elsewhere it builds and reports them as 0.

func dieWithParent(*exec.Cmd) {}

func procRSS(int) (rssMB, peakMB float64, err error) {
	return 0, 0, errors.New("process RSS needs /proc")
}

func resetPeakRSS() {}

func selfCPU() time.Duration { return 0 }

func procCPU(int) time.Duration { return 0 }

// No affinity and no idle scheduling class: children start anywhere and
// no spinner runs.

func allowedCPUs() []int { return nil }

func startOn(cmd *exec.Cmd, _ []int) error { return cmd.Start() }

func confineSelf([]int) error { return errors.New("thread affinity needs Linux") }

func idleSpin() int { return 1 }
