package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
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

// serverProc is one running cmd/serve process.
type serverProc struct {
	cmd     *exec.Cmd
	exited  chan error // receives cmd.Wait's result once
	BaseURL string
	// Setup is the time from exec to the first healthy /healthz, with
	// the model loaded and compiled.
	Setup time.Duration
}

// startServer execs the serve binary with default flags on a free
// loopback port, serving the model file as cpi@v1, and waits until
// /healthz answers.
//
// The wait is driven by the server's own log, not a timer: cmd/serve
// prints "serving" once its models are loaded and compiled, right
// before it listens, so the first read of that line wakes this process
// at once, and the /healthz retries that follow span only the gap
// between the print and the listen. A polling timer here fires about
// half a millisecond late, a tenth of the whole start.
func startServer(bin, modelPath, logPath string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd := exec.Command(bin, "-model", modelRef+"="+modelPath, "-addr", addr)
	cmd.Stdout, cmd.Stderr = pw, pw
	start := time.Now()
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	// The log goroutine copies the server's output to its log file until
	// the server exits, and signals the serving line on the way.
	serving := make(chan struct{})
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		defer logf.Close()
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		seen := false
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
			if !seen && strings.HasPrefix(sc.Text(), "serve: serving ") {
				seen = true
				close(serving)
			}
		}
		// A line too long to scan ends the scan; keep draining, since a
		// write to a closed pipe would kill the server.
		_, _ = io.Copy(logf, pr)
	}()
	exited := make(chan error, 1)
	go func() {
		err := cmd.Wait()
		<-logDone
		exited <- err
	}()
	s := &serverProc{cmd: cmd, exited: exited, BaseURL: "http://" + addr}
	select {
	case <-serving:
	case err := <-exited:
		return nil, fmt.Errorf("serve exited before serving (%v); see %s", err, logPath)
	case <-time.After(60 * time.Second):
		s.Stop()
		return nil, fmt.Errorf("serve not serving after 60s; see %s", logPath)
	}
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := client.Get(s.BaseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.Setup = time.Since(start)
				return s, nil
			}
		}
		select {
		case werr := <-exited:
			return nil, fmt.Errorf("serve exited before becoming healthy (%v); see %s", werr, logPath)
		default:
		}
		if time.Since(start) > 60*time.Second {
			s.Stop()
			return nil, fmt.Errorf("serve not healthy after 60s (%v); see %s", err, logPath)
		}
		runtime.Gosched()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// procCPU is a process's consumed user+system CPU time from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// peakRSSMB is a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// Stop sends SIGTERM (the server drains gracefully), waits for the
// process to exit, and kills it if it has not within ten seconds.
func (s *serverProc) Stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}
