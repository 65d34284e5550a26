package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// envStamp identifies the machine, toolchain, program and inputs of a run.
type envStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
}

func stampEnv(seed int64, workload string, trace int) envStamp {
	return envStamp{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Source:     sourceDigest(),
	}
}

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

// gitCommit returns the checkout's commit, or "none" when the checkout is
// not a git repository (the source digest still identifies the program).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod file of the checkout, so
// runs of the same program can be matched without git.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && strings.HasPrefix(n, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB returns this process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(v))
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
