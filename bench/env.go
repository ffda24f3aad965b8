package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// envStamp records where and how a result was measured.
type envStamp struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"nproc"`
	// DriverGOMAXPROCS is the load generator's; ProgramGOMAXPROCS is what
	// the programs under test inherit ($GOMAXPROCS, else the Go default of
	// one per CPU).
	DriverGOMAXPROCS  int    `json:"driver_gomaxprocs"`
	ProgramGOMAXPROCS string `json:"program_gomaxprocs"`
	CPUModel          string `json:"cpu_model"`
	Commit            string `json:"commit"`
	Seed              int64  `json:"seed"`
	// Seconds is the measured time per workload; Workloads were run.
	Seconds   int      `json:"seconds"`
	Workloads []string `json:"workloads"`
	Time      string   `json:"time"`
}

func stamp(cfg runConfig, workloads []string, seconds int) envStamp {
	procs := os.Getenv("GOMAXPROCS")
	if procs == "" {
		procs = "default (one per CPU)"
	}
	return envStamp{
		GoVersion:         runtime.Version(),
		GOOS:              runtime.GOOS,
		GOARCH:            runtime.GOARCH,
		NumCPU:            runtime.NumCPU(),
		DriverGOMAXPROCS:  min(2, runtime.NumCPU()),
		ProgramGOMAXPROCS: procs,
		CPUModel:          cpuModel(),
		Commit:            commit(cfg.root),
		Seed:              cfg.seed,
		Seconds:           seconds,
		Workloads:         workloads,
		Time:              time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out git commit, or "unknown" outside a git
// checkout.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(out))
}
