package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// envHeader identifies the host a result was measured on. Host-time metrics
// of two results are only comparable when their headers agree: the tensor
// kernels dispatch on CPUID (AVX-512F panels, VNNI int8), so the same commit
// runs different code on different CPUs.
type envHeader struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	// AVX512F and AVX512VNNI report the CPU flags the tensor package's
	// kernel dispatch keys on, as /proc/cpuinfo lists them (the package
	// does not export its own decision).
	AVX512F    bool   `json:"avx512f"`
	AVX512VNNI bool   `json:"avx512_vnni"`
	Commit     string `json:"commit"`
}

func readEnv() envHeader {
	e := envHeader{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			key, val, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(key) {
			case "model name":
				e.CPUModel = strings.TrimSpace(val)
			case "flags":
				for _, fl := range strings.Fields(val) {
					switch fl {
					case "avx512f":
						e.AVX512F = true
					case "avx512_vnni":
						e.AVX512VNNI = true
					}
				}
				return e.withCommit()
			}
		}
	}
	return e.withCommit()
}

// withCommit fills the commit from git when the tree is a repository; the
// driver's checkout is not one, and the header then says "unknown".
func (e envHeader) withCommit() envHeader {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err == nil {
		if c := strings.TrimSpace(string(out)); c != "" {
			e.Commit = c
		}
	}
	return e
}

// sameHost reports whether host-time metrics of the two headers compare.
// The commit is what a comparison is about, so it does not take part.
func (e envHeader) sameHost(o envHeader) bool {
	e.Commit, o.Commit = "", ""
	return e == o
}

func (e envHeader) String() string {
	return fmt.Sprintf("%s %s/%s GOMAXPROCS=%d nproc=%d cpu=%q avx512f=%v avx512_vnni=%v commit=%s",
		e.GoVersion, e.GOOS, e.GOARCH, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.AVX512F, e.AVX512VNNI, e.Commit)
}

// peakRSSMB is the process's VmHWM in MB (0 where /proc is unavailable).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
