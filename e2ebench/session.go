package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// stamped is one ingestd stdout line with the time the harness read it.
type stamped struct {
	t time.Time
	s string
}

// session is one ingestd process from exec to exit: one seed or
// restore, one loopback connection carrying the whole stream.
type session struct {
	start, ready time.Time
	sender
	lines   []stamped
	stderr  string
	exitErr error

	cpuAtReady time.Duration // ingestd CPU when it printed its listening line
	cpuTotal   time.Duration // rusage user+sys at exit
	// peakRSSKiB is ingestd's VmHWM, polled while it runs. The rusage
	// max RSS of a child started by fork and exec also counts the
	// parent's resident set at the fork, so it would price this harness.
	peakRSSKiB int64

	out output
}

// ingestdCommand is ingestd with the given flags, killed by the kernel
// if this process dies first, so an interrupted run leaves no server
// behind.
func ingestdCommand(bin string, args []string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runSession execs ingestd, waits for its listening line, streams the
// workload's wire bytes over one TCP connection (paced when rate > 0),
// half-closes, and collects everything ingestd printed until it exits.
func runSession(bin string, w *workload, historyPath, ckptDir string) (*session, error) {
	s := &session{sender: sender{progress: newProgress()}}
	cmd := ingestdCommand(bin, w.ingestdArgs(historyPath, ckptDir, false))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	s.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ingestd: %w", err)
	}
	// On every early return: kill ingestd, which ends the stdout reader
	// and with it the RSS poller, then wait for both.
	exited := false
	pollDone := make(chan struct{})
	defer func() {
		if !exited {
			cmd.Process.Kill()
			cmd.Wait()
		}
		<-pollDone
	}()

	pid := cmd.Process.Pid
	var hwm atomic.Int64
	pollRSS := func() {
		if v := vmHWM(pid); v > hwm.Load() {
			hwm.Store(v)
		}
	}
	listening := make(chan stamped, 1)
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			l := stamped{time.Now(), sc.Text()}
			s.lines = append(s.lines, l)
			if strings.HasPrefix(l.s, "ingestd: listening on tcp ") {
				listening <- l
			}
			if m := reAlarm.FindStringSubmatch(l.s); m != nil {
				b, _ := strconv.Atoi(m[1])
				s.progress.report(b - w.seqBase)
			}
			if reFinal.MatchString(l.s) {
				pollRSS() // the last line before exit: the high-water is final
			}
		}
	}()
	go func() {
		defer close(pollDone)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			pollRSS()
			select {
			case <-readDone:
				return
			case <-t.C:
			}
		}
	}()

	var addr string
	select {
	case l := <-listening:
		s.ready = l.t
		addr = strings.TrimPrefix(l.s, "ingestd: listening on tcp ")
	case <-readDone:
		cmd.Wait()
		exited = true
		return nil, fmt.Errorf("ingestd exited before listening: %v: %s", cmd.ProcessState, strings.TrimSpace(stderr.String()))
	case <-time.After(60 * time.Second):
		return nil, errors.New("ingestd did not start listening within 60s")
	}
	s.cpuAtReady = taskCPU(pid)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial ingestd: %w", err)
	}
	tcp := conn.(*net.TCPConn)
	if err := s.send(tcp, w); err != nil {
		tcp.Close()
		return nil, err
	}

	select {
	case <-readDone:
	case <-time.After(120 * time.Second):
		tcp.Close()
		return nil, errors.New("ingestd did not exit within 120s of the stream's end")
	}
	tcp.Close()
	s.exitErr = cmd.Wait()
	exited = true
	s.stderr = stderr.String()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.cpuTotal = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.peakRSSKiB = hwm.Load()
	s.out = parseOutput(s.lines)
	return s, nil
}

// progress is the sender's view of how far the server has got: the
// session bin after the last one it reported an alarm on.
type progress struct {
	bins atomic.Int64
	tick chan struct{}
}

func newProgress() *progress { return &progress{tick: make(chan struct{}, 1)} }

// report records that the server has reported session bin b.
func (p *progress) report(b int) {
	if int64(b+1) > p.bins.Load() {
		p.bins.Store(int64(b + 1))
	}
	select {
	case p.tick <- struct{}{}:
	default:
	}
}

// await returns once the server has reported bin b-1 or later, or
// after a second without a report that gets there.
func (p *progress) await(b int64) {
	timeout := time.NewTimer(time.Second)
	defer timeout.Stop()
	for p.bins.Load() < b {
		select {
		case <-p.tick:
		case <-timeout.C:
			return
		}
	}
}

// sender is the load generator's record of one stream it sent.
type sender struct {
	w        *workload
	progress *progress
	// firstByte is when the bulk stream began, after any probes.
	firstByte time.Time
	// Open loop: bin i's schedule slot is start + i*interval.
	start    time.Time
	interval time.Duration
	sendLag  []time.Duration // write return minus schedule slot, per bin
	// Closed loop: probeAt[p] is when the write of probe frame p began.
	probeAt []time.Time
}

// due is when session bin i was due: its schedule slot in the open
// loop, the start of its probe frame's write in the closed loop. The
// bulk bins of a closed loop are not timed: there a bin's wait is the
// bytes ahead of it over the server's rate, set by buffer sizes.
func (s *sender) due(i int) time.Time {
	if s.interval > 0 {
		return s.start.Add(time.Duration(i) * s.interval)
	}
	if i < s.w.lead {
		return s.probeAt[i/s.w.format.BatchBins]
	}
	return time.Time{}
}

// send writes the workload's session stream on c, paced when the
// workload has a rate, then half-closes the connection.
func (s *sender) send(c *net.TCPConn, w *workload) error {
	s.w = w
	if s.progress == nil {
		s.progress = newProgress()
	}
	var err error
	if w.rate > 0 {
		err = s.sendPaced(c, w)
	} else {
		err = s.sendClosed(c, w)
	}
	if err == nil {
		err = c.CloseWrite()
	}
	if err != nil {
		return fmt.Errorf("send stream: %w", err)
	}
	return nil
}

// sendClosed writes the header, then each probe frame once the server
// has reported the spikes of the one before, then the bulk stream
// back to back, as fast as the server reads it. A probe spike that is
// never reported stalls the sender at most a second.
func (s *sender) sendClosed(c *net.TCPConn, w *workload) error {
	if _, err := c.Write(w.wire[:binaryHeaderSize]); err != nil {
		return err
	}
	for p, frame := range w.probe {
		s.probeAt = append(s.probeAt, time.Now())
		if _, err := c.Write(frame); err != nil {
			return err
		}
		s.progress.await(int64(w.probeAck[p]))
	}
	s.firstByte = time.Now()
	for k := 0; k < w.copies/w.encCopies; k++ {
		if _, err := c.Write(w.wire[binaryHeaderSize:]); err != nil {
			return err
		}
	}
	return nil
}

// sendPaced writes each bin's frame at its schedule slot, start +
// i/rate, batching whatever fell due while the generator slept, and
// records how late each write returned against its slot.
func (s *sender) sendPaced(c *net.TCPConn, w *workload) error {
	n := w.sessionBins()
	s.sendLag = make([]time.Duration, n)
	s.interval = time.Duration(float64(time.Second) / w.rate)
	s.start = time.Now().Add(time.Millisecond)
	time.Sleep(time.Until(s.start))
	s.firstByte = time.Now()
	off, next := 0, 0
	for next < n {
		now := time.Now()
		upto := next
		for upto < n && !s.due(upto).After(now) {
			upto++
		}
		if upto == next {
			time.Sleep(s.due(next).Sub(now))
			continue
		}
		end := w.wireEnd(upto - 1)
		if _, err := c.Write(w.wire[off:end]); err != nil {
			return err
		}
		done := time.Now()
		for i := next; i < upto; i++ {
			s.sendLag[i] = done.Sub(s.due(i))
		}
		off, next = end, upto
	}
	return nil
}

// vmHWM is the peak resident set of pid in KiB, or 0 once it has gone.
func vmHWM(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kib, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kib
		}
	}
	return 0
}

// taskCPU sums the on-CPU time of every thread of pid, in nanoseconds
// as the scheduler accounts it; 0 when /proc is unavailable.
func taskCPU(pid int) time.Duration {
	paths, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var total int64
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			v, _ := strconv.ParseInt(f[0], 10, 64)
			total += v
		}
	}
	return time.Duration(total)
}

// selfCPU is this process's user+sys CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// output is what one ingestd run printed, parsed.
type output struct {
	links     int // from the seeded/restored banner
	alarms    []reported
	opens     []reported
	closes    []closed
	processed int
	done      time.Time // when the "bins processed" line was read
	highWater int
	dropped   int64
	rejected  int64
}

// reported is an alarm or an incident open: the bin and flow name it
// names, with the time its line was read. An open's key is its "flow
// X" or "view V (unattributed)" text.
type reported struct {
	t    time.Time
	id   int
	bin  int
	flow string
	key  string
	line string
}

type closed struct {
	t          time.Time
	id         int
	key        string
	first, end int
	line       string
}

var (
	reBanner = regexp.MustCompile(`^ingestd: \S+ model (?:seeded on \d+ bins|restored from .* at bin \d+) \(\S+: (\d+) links, rank \d+\)$`)
	reAlarm  = regexp.MustCompile(`^alarm bin (\d+): .*, flow (\S+), \S+ bytes$`)
	reOpen   = regexp.MustCompile(`^incident #(\d+) open: (flow (\S+)|view \S+ \(unattributed\)), start bin (\d+), SPE \S+$`)
	reClose  = regexp.MustCompile(`^incident #(\d+) closed: (flow \S+|view \S+ \(unattributed\)), bins (\d+)\.\.(\d+), `)
	reQueue  = regexp.MustCompile(`^ingestd: view "net" queue: depth high-water (\d+) bins, enqueued \d+, dropped (\d+) bins \(\d+ batches\), rejected (\d+)$`)
	reFinal  = regexp.MustCompile(`^ingestd: \d+ streams, (\d+) bins processed, `)
)

func parseOutput(lines []stamped) output {
	var o output
	atoi := func(s string) int { v, _ := strconv.Atoi(s); return v }
	for _, l := range lines {
		if m := reAlarm.FindStringSubmatch(l.s); m != nil {
			o.alarms = append(o.alarms, reported{t: l.t, bin: atoi(m[1]), flow: m[2], line: l.s})
		} else if m := reOpen.FindStringSubmatch(l.s); m != nil {
			o.opens = append(o.opens, reported{t: l.t, id: atoi(m[1]), key: m[2], flow: m[3], bin: atoi(m[4]), line: l.s})
		} else if m := reClose.FindStringSubmatch(l.s); m != nil {
			o.closes = append(o.closes, closed{t: l.t, id: atoi(m[1]), key: m[2], first: atoi(m[3]), end: atoi(m[4]), line: l.s})
		} else if m := reBanner.FindStringSubmatch(l.s); m != nil {
			o.links = atoi(m[1])
		} else if m := reQueue.FindStringSubmatch(l.s); m != nil {
			o.highWater, o.dropped, o.rejected = atoi(m[1]), int64(atoi(m[2])), int64(atoi(m[3]))
		} else if m := reFinal.FindStringSubmatch(l.s); m != nil {
			o.processed, o.done = atoi(m[1]), l.t
		}
	}
	return o
}

// makeCheckpoint runs ingestd once over the workload's pre-roll, fed on
// standard input, and returns the checkpoint it leaves: the state every
// warm-restart session resumes from.
func makeCheckpoint(bin string, w *workload, historyPath, dir string) ([]byte, error) {
	wire, _, err := encode(w.preroll, 1, w.format)
	if err != nil {
		return nil, err
	}
	ck := filepath.Join(dir, "base")
	if err := os.MkdirAll(ck, 0o755); err != nil {
		return nil, err
	}
	cmd := ingestdCommand(bin, w.ingestdArgs(historyPath, ck, true))
	cmd.Stdin = bytes.NewReader(wire)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("ingestd: %v: %s", err, out)
	}
	return os.ReadFile(filepath.Join(ck, "checkpoint.nams"))
}
