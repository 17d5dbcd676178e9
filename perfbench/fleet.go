package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one process under test. Its stderr log goes to a file, and the
// listening addresses are read from its log lines.
type proc struct {
	name      string
	cmd       *exec.Cmd
	maxprocs  string // GOMAXPROCS the process runs with ("" = runtime default)
	addr      string
	debugAddr string
	ready     chan struct{}
	exited    chan struct{}
}

// logWatcher is the process's stderr: it copies lines to the log file and
// picks the bound addresses out of the startup lines.
type logWatcher struct {
	p    *proc
	file *os.File
	mu   sync.Mutex
	buf  []byte
	once sync.Once
}

func (w *logWatcher) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.file.Write(b); err != nil {
		return 0, err
	}
	w.buf = append(w.buf, b...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			break
		}
		w.line(string(w.buf[:i]))
		w.buf = w.buf[i+1:]
	}
	return len(b), nil
}

// line handles one slog text line, e.g.
// `time=… level=INFO msg="popserver listening" addr=127.0.0.1:40123 …`.
func (w *logWatcher) line(l string) {
	switch {
	case strings.Contains(l, `msg="debug listener up"`):
		w.p.debugAddr = logField(l, "addr")
	case strings.Contains(l, `msg="popserver listening"`), strings.Contains(l, `msg="shard worker listening"`):
		w.p.addr = logField(l, "addr")
		w.once.Do(func() { close(w.p.ready) })
	}
}

func logField(line, key string) string {
	i := strings.Index(line, " "+key+"=")
	if i < 0 {
		return ""
	}
	v := line[i+len(key)+2:]
	if j := strings.IndexByte(v, ' '); j >= 0 {
		v = v[:j]
	}
	return v
}

// fleet owns every process the benchmark starts and stops all of them.
type fleet struct {
	logDir string
	procs  []*proc
	files  []*os.File
}

// start launches bin with args, bound to loopback port 0, and waits until it
// logs its listening address.
func (f *fleet) start(ctx context.Context, name, bin, maxprocs string, args ...string) (*proc, error) {
	logFile, err := os.Create(filepath.Join(f.logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	f.files = append(f.files, logFile)
	p := &proc{name: name, maxprocs: maxprocs, ready: make(chan struct{}), exited: make(chan struct{})}
	cmd := exec.Command(bin, args...)
	cmd.Env = os.Environ()
	if maxprocs != "" {
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+maxprocs)
	}
	cmd.Stdout = logFile
	cmd.Stderr = &logWatcher{p: p, file: logFile}
	// The kernel kills the process if the benchmark dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p.cmd = cmd
	f.procs = append(f.procs, p)
	go func() {
		_ = cmd.Wait() // the exit status of a stopped process carries no information
		close(p.exited)
	}()
	select {
	case <-p.ready:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening; see %s", name, logFile.Name())
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("%s did not listen within 60s", name)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// stop terminates every process, escalating to SIGKILL after a grace
// period, and returns once all have exited.
func (f *fleet) stop() {
	for _, p := range f.procs {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	}
	deadline := time.After(10 * time.Second)
	for _, p := range f.procs {
		select {
		case <-p.exited:
		case <-deadline:
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
	}
	for _, file := range f.files {
		file.Close()
	}
	f.procs, f.files = nil, nil
}

// peakRSSMB sums VmHWM over the running processes.
func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range f.procs {
		mb, err := vmHWM(strconv.Itoa(p.cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		total += mb
	}
	return total, nil
}

// vmHWM reads a process's peak resident set size, in MiB, from
// /proc/<pid>/status ("self" for the benchmark itself).
func vmHWM(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line")
}
