package main

import (
	"bytes"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// envBlock pins a result to the machine and commit that produced it, so two
// result files can be told apart before their numbers are compared.
type envBlock struct {
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	Producers  int    `json:"producers"`
}

func readEnv() envBlock {
	return envBlock{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitHead(),
		Kernel:     kernelRelease(),
		Producers:  producers(),
	}
}

// producers is P, the cap on load-generating goroutines and connections.
func producers() int { return min(runtime.NumCPU(), 4) }

// gitHead is empty outside a git checkout (the benchmark driver runs from an
// exported tree).
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return strings.TrimSpace(string(b))
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// clearPeakRSS resets the high-water mark, so that a run of all five
// workloads reports each one's own peak. It fails without privileges, and
// then the mark is the process's.
func clearPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200) //nolint:errcheck // best effort
}
