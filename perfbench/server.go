package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running eh-server child process.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	logf *os.File
	// exited is closed once cmd.Wait has returned.
	exited chan struct{}
}

// startServer launches eh-server on a free loopback port and waits until
// /readyz reports ready. The returned duration runs from just before the
// process is started until the first ready answer: process start-up,
// snapshot restore and WAL replay.
func startServer(bin string, args []string, logPath string) (*serverProc, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		p, d, err := startOnce(bin, args, logPath)
		if err == nil {
			return p, d, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func startOnce(bin string, args []string, logPath string) (*serverProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server dies with the benchmark even if the benchmark crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, base: "http://" + addr, logf: logf, exited: make(chan struct{})}
	hc := &http.Client{Timeout: time.Second}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start eh-server: %w", err)
	}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	deadline := t0.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("eh-server exited during start-up (log %s)", logPath)
		default:
		}
		resp, err := hc.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ready := time.Since(t0)
				hc.CloseIdleConnections()
				return p, ready, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	p.stop()
	return nil, 0, fmt.Errorf("eh-server not ready after 60s (log %s)", logPath)
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// stop kills the process and waits until it has exited.
func (p *serverProc) stop() {
	p.cmd.Process.Kill()
	<-p.exited
	p.logf.Close()
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from outside.
func (p *serverProc) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// dirBytes sums the sizes of the regular files under dirs.
func dirBytes(dirs ...string) (int64, error) {
	var n int64
	for _, d := range dirs {
		err := filepath.WalkDir(d, func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}
