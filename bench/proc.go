package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSet tracks every child the harness started, each in its own process
// group, so that every exit path — normal return, error, panic, SIGINT —
// can kill the whole tree (pisces run -nodes forks followers of its own).
type procSet struct {
	mu    sync.Mutex
	pgids map[int]bool
	cpus  []int // the processors the harness may use (affinity.go)
}

func newProcSet() *procSet { return &procSet{pgids: map[int]bool{}, cpus: allowedCPUs()} }

// moveHome pins the harness, and with it every child it starts from then on,
// for the n-th set-up of a run.  Set-ups walk round the processors the
// harness may use, so a run's trials sample every one of them, and a
// neighbour that sits on one for the whole run slows a share of the trials,
// not all of them.
func (ps *procSet) moveHome(n int) { pinSelf(ps.cpus[n%len(ps.cpus)]) }

// command prepares a child in a new process group with the harness's
// GOMAXPROCS; it inherits the harness's processor.
func (ps *procSet) command(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	// On timeout kill the group, not just the leader, and do not wait for
	// grandchildren holding the output pipes.
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 2 * time.Second
	return cmd
}

func (ps *procSet) start(cmd *exec.Cmd) error {
	if err := cmd.Start(); err != nil {
		return err
	}
	ps.mu.Lock()
	ps.pgids[cmd.Process.Pid] = true
	ps.mu.Unlock()
	return nil
}

// reaped forgets a group after its leader was waited for, and reports an
// error when members of the group are still alive (a leftover child); those
// are killed.
func (ps *procSet) reaped(cmd *exec.Cmd) error {
	pgid := cmd.Process.Pid
	ps.mu.Lock()
	delete(ps.pgids, pgid)
	ps.mu.Unlock()
	if err := syscall.Kill(-pgid, 0); err == nil {
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
		return fmt.Errorf("%s left child processes behind (group %d)", filepath.Base(cmd.Path), pgid)
	}
	return nil
}

// killAll kills every live group; deferred in main and run on signals.
func (ps *procSet) killAll() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for pgid := range ps.pgids {
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
	}
}

// leftovers lists the groups still registered: after a run ends it must be
// empty.
func (ps *procSet) leftovers() []int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var out []int
	for pgid := range ps.pgids {
		out = append(out, pgid)
	}
	return out
}

// killOnSignal kills the children and exits when the harness is interrupted.
func (ps *procSet) killOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		ps.killAll()
		os.Exit(130)
	}()
}

// runOutcome is what one finished child reports.
type runOutcome struct {
	stdout, stderr string
	wall           time.Duration
	cpu            time.Duration // user+system, descendants the child waited for included
	peakRSSKB      int64         // resident-set high-water marks of the leader and its children, summed
}

// runToEnd runs one child process tree to completion under a timeout.
func (ps *procSet) runToEnd(timeout time.Duration, name string, args ...string) (runOutcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := ps.command(ctx, name, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	if err := ps.start(cmd); err != nil {
		return runOutcome{}, err
	}
	stop, peak := make(chan struct{}), make(chan int64, 1)
	go func() { peak <- treePeakRSSKB(cmd.Process.Pid, stop) }()
	err := cmd.Wait()
	close(stop)
	out := runOutcome{stdout: stdout.String(), stderr: stderr.String(), wall: time.Since(t0), peakRSSKB: <-peak}
	out.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ctx.Err() != nil {
		err = fmt.Errorf("timed out after %v", timeout)
	}
	if lerr := ps.reaped(cmd); err == nil {
		err = lerr
	}
	return out, err
}

// daemonCmd is a started long-running child with its output being drained.
type daemonCmd struct {
	cmd       *exec.Cmd
	firstLine chan string // the first line of its standard output
	stderr    *lockedBuffer
	drained   chan struct{}
}

// startDaemon starts a child that keeps running, hands the first line it
// prints to firstLine and discards the rest, so the child never blocks on a
// full pipe.
func (ps *procSet) startDaemon(name string, args ...string) (*daemonCmd, error) {
	cmd := ps.command(context.Background(), name, args...)
	dc := &daemonCmd{cmd: cmd, firstLine: make(chan string, 1), stderr: &lockedBuffer{}, drained: make(chan struct{})}
	cmd.Stderr = dc.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := ps.start(cmd); err != nil {
		return nil, err
	}
	go func() {
		defer close(dc.drained)
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		dc.firstLine <- line
		_, _ = io.Copy(io.Discard, br)
	}()
	return dc, nil
}

// stopDaemon asks the daemon to drain with SIGTERM, kills its group if it
// has not exited within 15 seconds, and reaps it.  Anything but a clean exit
// is an error.
func (ps *procSet) stopDaemon(dc *daemonCmd) error {
	_ = dc.cmd.Process.Signal(syscall.SIGTERM)
	killer := time.AfterFunc(15*time.Second, func() { _ = syscall.Kill(-dc.cmd.Process.Pid, syscall.SIGKILL) })
	<-dc.drained // Wait closes the pipe, so the reader must finish first
	err := dc.cmd.Wait()
	killer.Stop()
	if err != nil {
		err = fmt.Errorf("%s %s: %v\n%s", filepath.Base(dc.cmd.Path), dc.cmd.Args[1], err, dc.stderr.String())
	}
	if lerr := ps.reaped(dc.cmd); err == nil {
		err = lerr
	}
	return err
}

// selfCPU is the harness process's own user+system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// vmHWMKB reads a live process's resident-set high-water mark from /proc; 0
// when the process is gone.  The ru_maxrss of a reaped child cannot serve: a
// child that os/exec starts shares the harness's memory until it execs and
// inherits the harness's own high-water mark there, so it never reads below
// it.
func vmHWMKB(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(b), "VmHWM:")
	if !ok {
		return 0
	}
	f := strings.Fields(rest)
	if len(f) == 0 {
		return 0
	}
	kb, _ := strconv.ParseInt(f[0], 10, 64)
	return kb
}

// treePeakRSSKB follows a running process and the children it forks (pisces
// run -nodes forks its follower nodes), sampling their high-water marks 20
// times a second until stop is closed, and returns the sum over processes.
func treePeakRSSKB(leader int, stop <-chan struct{}) int64 {
	peaks := map[int]int64{}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		pids := []int{leader}
		lists, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/children", leader))
		for _, list := range lists {
			b, _ := os.ReadFile(list)
			for _, f := range strings.Fields(string(b)) {
				if pid, err := strconv.Atoi(f); err == nil {
					pids = append(pids, pid)
				}
			}
		}
		for _, pid := range pids {
			peaks[pid] = max(peaks[pid], vmHWMKB(pid))
		}
		select {
		case <-stop:
			var sum int64
			for _, kb := range peaks {
				sum += kb
			}
			return sum
		case <-tick.C:
		}
	}
}

// pidCPU reads a live process's user+system time from /proc (the daemon
// keeps running between trials, so its rusage is not yet available).
func pidCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, in USER_HZ ticks (100 on Linux).
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("unexpected /proc stat format")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unexpected /proc stat format")
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// repoRoot finds the repository root, the directory holding cmd/pisces, at or
// above the working directory: run.sh starts the harness at the root, go test
// in bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "pisces", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/pisces at or above the working directory: the benchmark builds the program from the repository's source")
		}
		dir = parent
	}
}

// buildPisces builds the real cmd/pisces binary into buildDir and reports
// how long the toolchain took (bench.build_s; not part of any workload's
// set-up).
func buildPisces(root, buildDir string) (string, float64, error) {
	bin := filepath.Join(buildDir, "pisces")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pisces")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/pisces: %v\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}
