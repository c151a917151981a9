package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
)

// quantile is the linearly interpolated p-quantile (0 ≤ p ≤ 1) of xs.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d float64) float64 { return d * 1e3 }

// stealTicks reads the host's steal time (USER_HZ ticks, all CPUs) from
// /proc/stat: time a virtual CPU was runnable but not running.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var n int64
	fmt.Sscan(f[8], &n)
	return n
}
