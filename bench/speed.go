package main

// The machine a benchmark runs on is shared, and its speed wanders: other
// tenants share the physical cores, caches and memory, so the same work can
// take half again as long one minute as the next, in CPU time as well as in
// wall time. A speedMeter measures that wander while a run measures the
// program, and the run reports its timings at a fixed reference speed.
//
// The meter is a child process of this binary with one thread per CPU. Every
// refPeriod all of its threads, at real-time priority, preempt the program
// together and each times one pass of a reference kernel by its own CPU
// time, so the program's own work never shares the machine with a sample.
// The kernel is a programming step in miniature: draw a programming error
// for each of 32768 weights from a xorshift stream, quantize each weight to
// 16 levels, and rank the weights by error magnitude with sort.Slice, the
// selection every policy makes. It is frozen here, apart from the program's
// code, so a change to the program never changes the reference it is
// measured against.
//
// Why this kernel: on a 2-vCPU Intel Xeon @ 2.10GHz KVM guest, over ten runs
// of each workload on a busy host (raw trials/s spread 0.16–0.34 between
// runs), each workload's trials/s followed this kernel's speed with an
// elasticity of 1.00–1.15 (correlation 0.91–0.97), so dividing by it leaves
// a steady rate. An im2col convolution with LeNet's second-layer shape, timed
// the same way, followed with an elasticity of only 0.71–0.84: it
// exaggerates the wander. Timed at normal priority beside the program rather
// than preempting it, a kernel also measures the program's own load.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// meterEnv makes this binary run as a meter child; main checks it
	// before anything else.
	meterEnv = "SWIMBENCH_METER"
	// refPeriod is how often the meter samples the machine's speed. A
	// sample takes about 8 ms of every CPU, so the program keeps 97%.
	refPeriod = 250 * time.Millisecond
	// refNominal is one sample's CPU time at the reference speed, about
	// the median on the machine above.
	refNominal = 0.008
	// refWeights is how many weights the reference kernel programs.
	refWeights = 1 << 15
)

// sample is one reference measurement: when it ended (Unix nanoseconds)
// and the CPU seconds it took.
type sample struct {
	at  int64
	cpu float64
}

// speedMeter collects a meter child's samples.
type speedMeter struct {
	cmd      *exec.Cmd
	stdin    io.Closer
	read     chan error // the sample reader's end
	mu       sync.Mutex
	samples  []sample
	realtime bool // the child's threads got real-time priority
}

// startSpeedMeter starts a meter child and collects its samples until close.
func startSpeedMeter(ctx context.Context) (*speedMeter, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("meter: %w", err)
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), meterEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("meter: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("meter: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("meter: %w", err)
	}
	s := &speedMeter{cmd: cmd, stdin: stdin, read: make(chan error, 1)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			at, cpu, ok := strings.Cut(sc.Text(), " ")
			a, errA := strconv.ParseInt(at, 10, 64)
			c, errC := strconv.ParseFloat(cpu, 64)
			s.mu.Lock()
			if ok && errA == nil && errC == nil {
				s.samples = append(s.samples, sample{at: a, cpu: c})
			} else if sc.Text() == "realtime" {
				s.realtime = true
			}
			s.mu.Unlock()
		}
		s.read <- sc.Err()
	}()
	return s, nil
}

// close stops the meter child and waits for it and for the sample reader
// to end. It reports whether the child's threads ran at real-time priority.
func (s *speedMeter) close() (realtime bool, err error) {
	s.stdin.Close()
	err = <-s.read
	if werr := s.cmd.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		err = fmt.Errorf("meter: %w", err)
	}
	return s.realtime, err
}

// slowdown is how much slower than the reference speed the machine ran
// between from and to: the median sample in that window over refNominal.
// A window that holds no sample takes the one that ended nearest to it.
func (s *speedMeter) slowdown(from, to time.Time) float64 {
	lo, hi := from.UnixNano(), to.UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	var in []float64
	nearest, gap := 0.0, int64(-1)
	for _, x := range s.samples {
		if x.at >= lo && x.at <= hi {
			in = append(in, x.cpu)
		}
		d := max(lo-x.at, x.at-hi)
		if gap < 0 || d < gap {
			nearest, gap = x.cpu, d
		}
	}
	if len(in) == 0 {
		if gap < 0 {
			return 1 // no sample at all
		}
		in = append(in, nearest)
	}
	return median(in) / refNominal
}

// meterChild is the whole program of a meter child: one sampling thread
// per CPU until its standard input closes. Its first line says whether the
// threads run at real-time priority; then it prints "<unix ns> <cpu s>" per
// sample.
func meterChild() int {
	var (
		mu  sync.Mutex
		out = bufio.NewWriter(os.Stdout)
	)
	n := runtime.NumCPU()
	ready := make(chan bool, n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			ready <- setRealtime() == nil
			k := newRefProgram()
			for {
				// Every thread wakes on the same period boundary.
				now := time.Now()
				time.Sleep(now.Truncate(refPeriod).Add(refPeriod).Sub(now))
				t0 := threadCPU()
				k.run()
				d := threadCPU() - t0
				mu.Lock()
				fmt.Fprintf(out, "%d %.9f\n", time.Now().UnixNano(), d)
				out.Flush()
				mu.Unlock()
			}
		}()
	}
	realtime := true
	for i := 0; i < n; i++ {
		realtime = <-ready && realtime
	}
	mu.Lock()
	if realtime {
		fmt.Fprintln(out, "realtime")
	} else {
		fmt.Fprintln(out, "normal")
	}
	out.Flush()
	mu.Unlock()
	io.Copy(io.Discard, os.Stdin)
	return 0
}

// setRealtime moves the calling thread to the lowest SCHED_FIFO priority,
// above every normal thread (Linux; needs CAP_SYS_NICE).
func setRealtime() error {
	const schedFIFO = 1
	param := struct{ priority int32 }{1}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedFIFO, uintptr(unsafe.Pointer(&param))); e != 0 {
		return e
	}
	return nil
}

// refProgram is the reference kernel's data.
type refProgram struct {
	w, err []float64
	rank   []int32
}

func newRefProgram() *refProgram {
	k := &refProgram{w: make([]float64, refWeights), err: make([]float64, refWeights), rank: make([]int32, refWeights)}
	for i := range k.w {
		k.w[i] = math.Sin(float64(i))
	}
	return k
}

// run programs every weight with a quantization and a random error, then
// ranks the weights by the magnitude of their error, largest first.
func (k *refProgram) run() {
	x := uint64(0x9e3779b97f4a7c15)
	for i, w := range k.w {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u := float64(x>>11) / (1 << 53)
		k.err[i] = math.Round(w*15)/15 + (u-0.5)*0.1 - w
	}
	for i := range k.rank {
		k.rank[i] = int32(i)
	}
	sort.Slice(k.rank, func(a, b int) bool { return math.Abs(k.err[k.rank[a]]) > math.Abs(k.err[k.rank[b]]) })
}

// threadCPU is the calling OS thread's CPU time in seconds (Linux).
func threadCPU() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9
}
