package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is as close to process start as Go lets a program see; the
// first set-up of a run is timed from here.
var processStart = time.Now()

// hostMark is one reading of the host's clocks and allocator counters.
type hostMark struct {
	wall    time.Time
	cpu     time.Duration // process user+sys
	mallocs uint64
	bytes   uint64
}

// hostDelta is what the host spent between two marks.
type hostDelta struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// markHost reads the counters first and the wall clock last, so the cost of
// reading (ReadMemStats stops the world) falls outside an interval that
// starts with this mark.
func markHost() hostMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostMark{cpu: processCPU(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, wall: time.Now()}
}

// since closes an interval: wall clock first, counters after.
func (m hostMark) since() hostDelta {
	wall := time.Since(m.wall)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostDelta{wall: wall, cpu: processCPU() - m.cpu, mallocs: ms.Mallocs - m.mallocs, bytes: ms.TotalAlloc - m.bytes}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// gitCommit reads the checked-out commit from the repository's .git
// directory without running git; a checkout that is not a repository
// reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(root + "/.git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return short(ref)
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(root + "/.git/" + name); err == nil {
		return short(strings.TrimSpace(string(b)))
	}
	packed, err := os.ReadFile(root + "/.git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == name {
			return short(f[0])
		}
	}
	return "unknown"
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}
