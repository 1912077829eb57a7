package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// Env stamps a result file with what it was measured on. Compare mode
// pairs two sets of results only when their Machine and Toolchain
// fields agree.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	// Commit is the VCS revision the binary was built from, when the
	// build saw one; SourceDigest hashes the Go sources of the module
	// under test, so a checkout without VCS metadata is still
	// identified.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func stampEnv(root string) Env {
	e := Env{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		Commit:       "unknown",
		SourceDigest: sourceDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			e.Commit = rev
			if dirty {
				e.Commit += "+dirty"
			}
		}
	}
	return e
}

// sameMachine reports why two stamps may not be paired, or "" when
// they may.
func sameMachine(a, b Env) string {
	switch {
	case a.GoVersion != b.GoVersion:
		return "toolchain differs: " + a.GoVersion + " vs " + b.GoVersion
	case a.GOOS != b.GOOS || a.GOARCH != b.GOARCH:
		return "platform differs"
	case a.NumCPU != b.NumCPU:
		return "nproc differs: " + strconv.Itoa(a.NumCPU) + " vs " + strconv.Itoa(b.NumCPU)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return "GOMAXPROCS differs: " + strconv.Itoa(a.GOMAXPROCS) + " vs " + strconv.Itoa(b.GOMAXPROCS)
	case a.CPUModel != b.CPUModel:
		return "cpu model differs: " + a.CPUModel + " vs " + b.CPUModel
	}
	return ""
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

// sourceDigest hashes every .go file of the module rooted at root,
// skipping the benchmark's own directory and hidden directories.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not identify the source
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
		return nil
	})
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, or 0
// when /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
