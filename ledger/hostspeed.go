package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host is shared: other tenants' load slows the whole machine by up to
// twice, for minutes at a time, and a 45-second run cannot average that
// out. So every timing the benchmark reports is scaled to a reference host
// speed. Between passes a fixed probe runs — work that does not depend on
// this repository's code — and the passes' wall times are multiplied by
// probeRefS over the median probe time of the run. A change to the program
// moves the scaled time exactly as it moves the wall time; a slower host
// lengthens the probe and the pass together and cancels out.
//
// The probe runs in a child process so that its buffers do not count in the
// benchmark's resident memory and its allocations do not count in the
// benchmark's heap.

// probeRefS is the probe's wall time on the reference host (2 vCPUs of an
// Intel Xeon, quiet). Scaled times are in seconds of that host.
const probeRefS = 0.075

// probeBuffers are one probe worker's arrays. Random updates over 2, 8 and
// 16 MB and a sequential sweep stand in for the simulator's use of the
// cache levels and memory; an allocation churn stands in for its heap
// traffic. Their sizes were chosen so that the probe's time tracks the
// passes' time on both workloads while other tenants' load comes and goes.
type probeBuffers struct {
	small, mid, large []uint64
	keep              [][]byte
}

func newProbeBuffers() *probeBuffers {
	return &probeBuffers{
		small: make([]uint64, 2<<20/8),
		mid:   make([]uint64, 8<<20/8),
		large: make([]uint64, 16<<20/8),
		keep:  make([][]byte, 256),
	}
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func randomUpdates(buf []uint64, n int, x uint64) uint64 {
	m := uint64(len(buf) - 1) // len is a power of two
	for i := 0; i < n; i++ {
		x = xorshift(x)
		buf[x&m]++
	}
	return x
}

// work is one probe worker's fixed amount of work. Its writes land in the
// buffers, so none of it can be optimised away.
func (b *probeBuffers) work() {
	x := uint64(88172645463325252)
	x = randomUpdates(b.small, 1_500_000, x)
	x = randomUpdates(b.mid, 1_500_000, x)
	x = randomUpdates(b.large, 1_000_000, x)
	var s uint64 // running sum: each sweep reads and rewrites the whole array
	for r := 0; r < 2; r++ {
		for i := range b.large {
			s += b.large[i]
			b.large[i] = s
		}
	}
	for i := 0; i < 40_000; i++ {
		x = xorshift(x)
		buf := make([]byte, 64+int(x%8192))
		buf[0] = byte(i)
		b.keep[x%uint64(len(b.keep))] = buf
	}
}

// serveProbe is the child process: for every line on standard input it runs
// the probe on `workers` goroutines at once and prints the wall time in
// seconds. It returns at the end of its input.
func serveProbe(workers int) error {
	bufs := make([]*probeBuffers, workers)
	for i := range bufs {
		bufs[i] = newProbeBuffers()
	}
	round := func() time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for _, b := range bufs {
			wg.Add(1)
			go func(b *probeBuffers) {
				defer wg.Done()
				b.work()
			}(b)
		}
		wg.Wait()
		return time.Since(start)
	}
	round() // fault the buffers in and grow the heap before the first answer
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if _, err := fmt.Printf("%.9f\n", round().Seconds()); err != nil {
			return err
		}
	}
	return in.Err()
}

// hostProbe is the parent's handle on the probe child.
type hostProbe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
	all []float64 // every probe time measured, in seconds
}

// startProbe starts the probe child: this binary with -probe-workers.
func startProbe(workers int) (*hostProbe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-probe-workers", strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &hostProbe{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// measure runs the probe once and returns its wall time in seconds.
func (p *hostProbe) measure() (float64, error) {
	if _, err := io.WriteString(p.in, "\n"); err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	if !p.out.Scan() {
		return 0, fmt.Errorf("host probe ended: %v", p.out.Err())
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(p.out.Text()), 64)
	if err != nil || s <= 0 {
		return 0, fmt.Errorf("host probe: bad time %q", p.out.Text())
	}
	p.all = append(p.all, s)
	return s, nil
}

// scale converts seconds measured while the probe took probeS seconds into
// seconds of the reference host.
func scale(s, probeS float64) float64 {
	return s * probeRefS / probeS
}

// close ends the child (its input ends) and waits for it.
func (p *hostProbe) close() error {
	p.in.Close()
	return p.cmd.Wait()
}
