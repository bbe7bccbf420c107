package main

import (
	"fmt"
	"math"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: a fixed single-threaded
// kernel timed over a minute on the reference host (2 vCPUs of a
// virtual machine) ran anywhere from 1.0x to 1.8x its quiet time, and
// whole runs slowed by up to 2x. No estimator inside one run removes a
// slowdown that lasts the whole run, so every run also times a fixed
// calibration kernel between its measured intervals and states its
// times at the speed of the quiet reference host (refCalibration).
//
// The workloads slow down more than the kernel does: across runs on the
// reference host their times grew as a power of the kernel's slowdown
// s, between s^1.0 and s^1.5 depending on the workload and on how busy
// the host was (r^2 above 0.9). A run divides its times by
// s^slowdownExponent. Over the sets of 10 runs per workload it was
// chosen on, whose raw times spread by 10-60%, that left spreads of
// 2-12%. Scaling each interval by the calibrations at its own ends
// tracked the host no better: one calibration is noisier than the
// median of a run's.

// refCalibration is calibrate's result on the quiet reference host.
const refCalibration = 0.65e-3 // seconds

// slowdownExponent is the power of the kernel's slowdown that the
// workloads' wall-clock and CPU times are taken to grow with: the value
// that left the smallest spreads over the runs on the reference host.
const slowdownExponent = 1.25

// scaling says how a slow host moves a metric.
type scaling int

const (
	unscaled scaling = iota // memory, counts, ratios
	hostTime                // a wall-clock or CPU time: grows
	hostRate                // work per second: shrinks
)

// atReferenceSpeed states v, measured on a host with the given slowdown,
// at the quiet reference host's speed.
func (k scaling) atReferenceSpeed(v, slowdown float64) float64 {
	switch k {
	case hostTime:
		return v / math.Pow(slowdown, slowdownExponent)
	case hostRate:
		return v * math.Pow(slowdown, slowdownExponent)
	}
	return v
}

// calibBufs are the kernel's working sets, one per goroutine. They are
// mapped outside the Go heap so they do not change the collector's
// pacing of the program under test.
var calibBufs [2][]float64

// calibWords is each working set's size: 2 MiB, the L2 of one core.
const calibWords = 1 << 18

// mapCalibration maps and fills the kernel's working sets, once.
func mapCalibration() error {
	for g := range calibBufs {
		if calibBufs[g] != nil {
			continue
		}
		mem, err := syscall.Mmap(-1, 0, calibWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return fmt.Errorf("map calibration buffer: %w", err)
		}
		buf := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), calibWords)
		for i := range buf {
			buf[i] = 0.5 + float64((i*7919)%1013)/1013
		}
		calibBufs[g] = buf
	}
	return nil
}

// calibSink keeps the kernel's results live.
var calibSink [2]float64

// calibKernel mixes the two kinds of work the program does: floating
// point transcendentals, as in the plant simulator, and a dependent walk
// over a working set, as in the controllers' and the store's state.
func calibKernel(buf []float64) float64 {
	x := 0.0
	for _, v := range buf[:4096] {
		x += math.Exp(-v) + math.Pow(v, 0.7)
	}
	j := 0
	for i := 0; i < 1<<15; i++ {
		j = (j*1103515245 + 12345 + int(buf[j]*4)) & (calibWords - 1)
		x += buf[j]
	}
	return x
}

// calibrate runs the kernel on both CPUs at once, three times, and
// returns the median of the per-repetition mean times in seconds.
func calibrate() float64 {
	var reps [3]float64
	for r := range reps {
		var wg sync.WaitGroup
		var d [2]time.Duration
		for g := range d {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				t0 := time.Now()
				calibSink[g] += calibKernel(calibBufs[g])
				d[g] = time.Since(t0)
			}(g)
		}
		wg.Wait()
		reps[r] = (d[0] + d[1]).Seconds() / 2
	}
	return median(reps[:])
}

// calibrated collects a run's calibrations, taken between its measured
// intervals while the rest of the process is idle.
type calibrated struct{ calib []float64 }

// mark calibrates once.
func (c *calibrated) mark() { c.calib = append(c.calib, calibrate()) }

// slowdown is how much slower than the quiet reference host the host
// was over the calibrations in cals: their median over refCalibration.
func slowdown(cals ...calibrated) float64 {
	var all []float64
	for _, c := range cals {
		all = append(all, c.calib...)
	}
	return median(all) / refCalibration
}
