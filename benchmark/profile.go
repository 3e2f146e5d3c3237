package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// hostShareNames are the classes a CPU sample falls into: the program's
// layers (packages under internal/), the Go scheduler, the Go allocator and
// collector, and the rest.
var hostShareNames = []string{
	"sim", "platform", "btree", "storage", "lockmgr", "wal", "txn", "dora", "hw",
	"core", "workload", "stats_obs", "runtime_sched", "runtime_gc_malloc", "other",
}

// layerOfPackage maps a package under bionicdb/internal/ to its class.
var layerOfPackage = map[string]string{
	"sim": "sim", "platform": "platform", "btree": "btree",
	"bufferpool": "storage", "storage": "storage", "columnar": "storage",
	"lockmgr": "lockmgr", "wal": "wal", "txn": "txn", "dora": "dora", "hw": "hw",
	"core": "core", "bench": "core", "workload": "workload", "stats": "stats_obs", "obs": "stats_obs",
}

// Entry points of the Go scheduler (what a simulated process hand-off costs
// the host) and of the allocator and collector, matched by prefix after
// "runtime.". Their callees need no listing: a sample inside one of them has
// the entry point further up its stack.
var (
	schedPrefixes = []string{
		"gopark", "goready", "ready", "mcall", "park_m", "schedule", "findRunnable", "chanrecv", "chansend",
		"closechan", "selectgo", "goexit", "newproc", "gosched", "Gosched", "wakep", "startm", "stopm",
		"sysmon", "mstart", "notesleep", "notewakeup", "futex",
	}
	gcMallocPrefixes = []string{
		"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap", "makechan",
		"gcBgMarkWorker", "gcAssist", "gcStart", "gcMark", "gcDrain", "gcSweep", "bgsweep", "bgscavenge",
		"gcWriteBarrier", "wbBufFlush", "(*mheap)", "(*mcache)", "(*mcentral)", "sweepone", "scanobject",
		"(*gcWork)", "markroot",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// classifyStack attributes one sample, whose frames are function names leaf
// first. Frames are read from the leaf up to the first one inside the
// program: scheduler or allocator work met on the way is the runtime's,
// anything else (a compare, a copy, a map probe) is charged to the layer
// that called it. A stack with no frame of the program is the runtime's
// background work, or other.
func classifyStack(frames []string) string {
	runtimeClass := ""
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, "bionicdb/internal/"); ok {
			if runtimeClass != "" {
				return runtimeClass
			}
			pkg := rest
			if i := strings.IndexAny(rest, "/."); i >= 0 {
				pkg = rest[:i]
			}
			if layer, ok := layerOfPackage[pkg]; ok {
				return layer
			}
			return "other"
		}
		if rest, ok := strings.CutPrefix(fn, "runtime."); ok && runtimeClass == "" {
			switch {
			case hasAnyPrefix(rest, schedPrefixes):
				runtimeClass = "runtime_sched"
			case hasAnyPrefix(rest, gcMallocPrefixes):
				runtimeClass = "runtime_gc_malloc"
			}
		}
	}
	if runtimeClass != "" {
		return runtimeClass
	}
	return "other"
}

// hostShares returns the share of a CPU profile's samples in each class of
// hostShareNames; the shares sum to 1. The profile is a file written by
// runtime/pprof, and `go tool pprof -traces` turns it into stacks: the
// toolchain that built the benchmark is there to read it. An empty profile
// (a run too short to be sampled) is all "other".
func hostShares(profilePath string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", profilePath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w: %s", profilePath, err, bytes.TrimSpace(stderr.Bytes()))
	}
	stacks, err := parseTraces(string(text))
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profilePath, err)
	}
	shares := make(map[string]float64, len(hostShareNames))
	for _, n := range hostShareNames {
		shares[n] = 0
	}
	var total float64
	for _, s := range stacks {
		shares[classifyStack(s.frames)] += float64(s.count)
		total += float64(s.count)
	}
	if total == 0 {
		shares["other"] = 1
		return shares, nil
	}
	for n := range shares {
		shares[n] /= total
	}
	return shares, nil
}

// profStack is one distinct stack of the profile: function names leaf first,
// and how many samples hit it.
type profStack struct {
	frames []string
	count  int64
}

// parseTraces reads the text `go tool pprof -traces` prints: after a header,
// one block per stack between rulers of dashes, whose first line carries the
// sample count before the leaf function and whose other lines are the
// callers, one each, inlined frames marked " (inline)".
func parseTraces(text string) ([]profStack, error) {
	var stacks []profStack
	inBlock := false // the header ends at the first ruler
	newStack := false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "-----"):
			inBlock, newStack = true, true
		case !inBlock || line == "":
		case newStack:
			count, fn, ok := strings.Cut(line, " ")
			n, err := strconv.ParseInt(count, 10, 64)
			if !ok || err != nil {
				return nil, fmt.Errorf("stack does not start with a sample count: %q", line)
			}
			stacks = append(stacks, profStack{frames: []string{frameName(fn)}, count: n})
			newStack = false
		default:
			s := &stacks[len(stacks)-1]
			s.frames = append(s.frames, frameName(line))
		}
	}
	return stacks, sc.Err()
}

func frameName(s string) string {
	return strings.TrimSuffix(strings.TrimSpace(s), " (inline)")
}
