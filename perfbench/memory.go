package main

import (
	"runtime/metrics"
	"time"
)

// memoryWatch samples, every memorySample, how much memory the Go runtime
// holds from the operating system: everything it has mapped minus what it
// has released. That is the process's resident set apart from the binary's
// own pages, and unlike the kernel's high-water mark it can be taken for one
// pass at a time.
type memoryWatch struct {
	stop chan struct{}
	peak chan uint64
}

// memorySample is far shorter than any job, so every input and backing
// store a job holds is seen.
const memorySample = 5 * time.Millisecond

func watchMemory() *memoryWatch {
	w := &memoryWatch{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		tick := time.NewTicker(memorySample)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
			select {
			case <-w.stop:
				w.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// end stops the sampling and returns the peak in MiB.
func (w *memoryWatch) end() float64 {
	close(w.stop)
	return float64(<-w.peak) / (1 << 20)
}
