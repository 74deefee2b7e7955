package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/gaugenn/gaugenn/internal/stats"
)

// median and percentile use the repository's one percentile helper.
func median(xs []float64) float64 { return stats.Median(xs) }

func percentile(xs []float64, p float64) float64 { return stats.Percentile(xs, p) }

func mean(xs []float64) float64 { return stats.Mean(xs) }

// geomean is the geometric mean of a map's values; 0 for an empty map.
func geomean(m map[string]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range m {
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(m)))
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS returns the freed heap to the kernel and resets this
// process's resident-set high-water mark, so that a later peakRSSMB
// covers only what runs after the call, plus what is resident at it.
func resetPeakRSS() (residentMB float64, err error) {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return peakRSSMB(os.Getpid()), nil
}

// selfCPU returns this process's user plus system CPU time. Unlike wall
// time it leaves out time the hypervisor gave to other guests.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSeconds reads a process's user plus system CPU time from
// /proc/<pid>/stat, in seconds (the kernel reports clock ticks of
// 1/100 s to user space on Linux).
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := strings.LastIndexByte(string(data), ')')
	if i < 0 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %.100s", pid, data)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %.100s", pid, data)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %.100s", pid, data)
	}
	return (utime + stime) / 100, nil
}

// cpuStat reads the machine's steal and total CPU time, in clock ticks,
// from the first line of /proc/stat; both are 0 if it cannot be read.
func cpuStat() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal guest guest_nice;
		// guest time is already counted in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
