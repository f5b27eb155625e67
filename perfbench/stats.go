package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile (ceil(q·n)-th smallest) of
// xs, or NaN for an empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	r := int(math.Ceil(q*float64(len(xs)))) - 1
	if r < 0 {
		r = 0
	}
	return xs[r]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startPeakRSS collects garbage and resets the kernel's resident-set
// high-water mark, so that peakRSSMB covers only the measured run; the
// record notes whether the reset worked.
func startPeakRSS(r *report) {
	runtime.GC()
	r.Notes["rss_scope"] = "run"
	if os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) != nil {
		r.Notes["rss_scope"] = "process"
	}
}

// peakRSSMB returns the resident-set high-water mark in MiB: VmHWM when
// /proc is readable, else the whole-process ru_maxrss.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuModel returns the host CPU model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostSteal reads the host-wide steal and total CPU ticks from /proc/stat:
// time the hypervisor ran other guests on this machine's CPUs.
func hostSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	fields := strings.Fields(line)
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealShare returns the share of CPU time stolen by the hypervisor since
// the hostSteal reading (s0, t0).
func stealShare(s0, t0 uint64) float64 {
	s1, t1 := hostSteal()
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
