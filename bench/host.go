package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		f := bytes.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(string(f[1]), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// spinSink keeps the compiler from deleting the spin kernel.
var spinSink uint64

// spinNs times a fixed integer kernel (the median of five passes of 2^21
// xorshift steps). It touches no memory and makes no calls, so it reads
// the speed this process is getting from the host right now. The canary
// is reported, never applied: no metric is normalised by it.
func spinNs() float64 {
	var d [5]float64
	for i := range d {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for k := 0; k < 1<<21; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d[i] = float64(time.Since(t0))
		spinSink += x
	}
	return median(d[:])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
