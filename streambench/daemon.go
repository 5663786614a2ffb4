package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one streamtokd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	log     *os.File
	exited  chan struct{} // closed once the process has been waited for
	waitErr error         // valid after exited is closed
}

// startDaemon execs streamtokd with the workload's flags and
// GOMAXPROCS = the host's CPU count, and waits until /healthz answers
// 200. Preloading happens before the daemon listens, so the returned
// duration covers compiling the workload's grammars or vocab.
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the harness dies without stopping it, the daemon goes too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, addr: addr, log: logf, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(120 * time.Second)
	for {
		resp, err := hc.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("streamtokd exited during start-up (%v); see %s", d.waitErr, logPath)
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("streamtokd did not become healthy within 120s")
		}
		time.Sleep(time.Millisecond)
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// stop sends SIGTERM (the daemon drains and exits 0), escalating to
// SIGKILL after 10 s, and waits for the process to end.
func (d *daemon) stop() error {
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.cmd.Process.Kill()
	}
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("streamtokd did not drain within 10s; killed")
	}
}

// cpuTime reads the daemon's user+sys CPU time from /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in USER_HZ (100/s) ticks.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", s)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// peakRSS reads the daemon's VmHWM in bytes.
func (d *daemon) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
