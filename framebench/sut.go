package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every process the benchmark starts, so each exit path
// (normal return, error, signal, panic) can stop them all.
var children struct {
	sync.Mutex
	procs []*exec.Cmd
}

// killChildren kills and reaps every child still running. Safe to call
// more than once.
func killChildren() {
	children.Lock()
	procs := children.procs
	children.procs = nil
	children.Unlock()
	for _, c := range procs {
		_ = c.Process.Kill()
		_ = c.Wait()
	}
}

// freePort reserves a loopback port by binding :0 and releasing it. The
// servers are started on an explicit port because `-addr :0` would log
// ":0", not the port the kernel picked.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// proc is one started server process.
type proc struct {
	cmd *exec.Cmd
	url string
}

// startProc launches a server binary on a fresh loopback port and waits
// until it answers /healthz. Its log goes to logPath.
func startProc(bin, logPath string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without running its cleanup, the kernel
	// kills the servers too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	children.Lock()
	children.procs = append(children.procs, cmd)
	children.Unlock()
	p := &proc{cmd: cmd, url: "http://" + addr}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(p.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s on %s not healthy after 20s (log: %s)", filepath.Base(bin), addr, logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the process and reaps it.
func (p *proc) stop() {
	children.Lock()
	for i, c := range children.procs {
		if c == p.cmd {
			children.procs = append(children.procs[:i], children.procs[i+1:]...)
			break
		}
	}
	children.Unlock()
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}

// cpuMs returns the process's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 10 ms).
func cpuMs(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (utime + stime) * 10, nil
}

// procStatusKB reads one kB field (VmHWM, VmRSS) of /proc/<pid>/status;
// pid 0 means this process.
func procStatusKB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			fs := strings.Fields(rest)
			if len(fs) == 0 {
				break
			}
			return strconv.ParseFloat(fs[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, field)
}

// rssSampler records a process's VmRSS every 100 ms.
type rssSampler struct {
	stop, done chan struct{}
	kb         []float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			if v, err := procStatusKB(pid, "VmRSS"); err == nil {
				s.kb = append(s.kb, v)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// end stops sampling and returns the samples in kB.
func (s *rssSampler) end() []float64 {
	close(s.stop)
	<-s.done
	return s.kb
}

// selfCPUMs is this process's user+system CPU time so far.
func selfCPUMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// promSamples parses a Prometheus text exposition into series → value
// (comments skipped; the series key keeps its labels verbatim).
func promSamples(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// histDelta returns the sum (in ms) and count a histogram series gained
// between two scrapes.
func histDelta(before, after map[string]float64, family, stage string) (sumMs, count float64) {
	lbl := `{stage="` + stage + `"}`
	sumMs = (after[family+"_sum"+lbl] - before[family+"_sum"+lbl]) * 1e3
	count = after[family+"_count"+lbl] - before[family+"_count"+lbl]
	return sumMs, count
}
