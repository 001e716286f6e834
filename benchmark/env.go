package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envRecord is printed with every result so a number can be read against
// the box that produced it.
type envRecord struct {
	GoVersion string
	NProc     int
	Kernel    string
	TmpFS     string // filesystem type of the durable workload's data directory
	Loadavg1m float64
	CalibMs   float64
}

// calibrate times a fixed pure-CPU loop (median of three), so that a slow
// or busy box shows up next to the results it produced.
func calibrate() float64 {
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		r := rng{s: 1}
		var acc uint64
		for j := 0; j < 50_000_000; j++ {
			acc ^= r.next()
		}
		calibSink = acc
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms)
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

func readEnv() envRecord {
	e := envRecord{
		GoVersion: runtime.Version(),
		NProc:     runtime.NumCPU(),
		Kernel:    "unknown",
		TmpFS:     fsType(os.TempDir()),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.Loadavg1m, _ = strconv.ParseFloat(f[0], 64) // unparsable reads as 0
		}
	}
	e.CalibMs = calibrate()
	return e
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
