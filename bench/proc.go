package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicksPerSecond is USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat. Linux fixes it at 100 on every architecture Go
// supports.
const clockTicksPerSecond = 100

// command prepares a child process of the benchmark. The child is killed
// if the benchmark dies first, so an interrupted run leaves nothing
// running; its standard error passes through for diagnostics.
func command(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runResult is one completed run of a program under test.
type runResult struct {
	wall   time.Duration
	cpu    time.Duration // user + system time of the child
	rssMB  float64       // peak resident set size
	stdout []byte
}

// runProgram runs bin to completion and measures it. Wall time spans
// process start to exit, so it includes the program's own start-up.
func runProgram(dir, bin string, args ...string) (runResult, error) {
	cmd := command(bin, args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return runResult{}, fmt.Errorf("%s %s: %w", bin, strings.Join(args, " "), err)
	}
	return runResult{
		wall:   wall,
		cpu:    cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(),
		rssMB:  maxRSSMB(cmd.ProcessState),
		stdout: out.Bytes(),
	}, nil
}

// maxRSSMB reads a finished child's peak resident set size from its
// rusage (ru_maxrss, in KiB on Linux).
func maxRSSMB(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// parseStatCPU extracts utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself contain spaces or parentheses, so fields are counted from the
// last ')'.
func parseStatCPU(stat []byte) (uint64, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, errors.New("stat: no command-name field")
	}
	// After ") " come fields 3 (state) onwards; utime and stime are
	// fields 14 and 15.
	fields := strings.Fields(string(stat[end+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: stime: %w", err)
	}
	return utime + stime, nil
}

// processCPU returns the CPU time a live process has used so far.
func processCPU(pid int) (time.Duration, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(stat)
	if err != nil {
		return 0, err
	}
	return time.Duration(ticks) * time.Second / clockTicksPerSecond, nil
}
