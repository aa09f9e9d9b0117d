package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// machineInfo is the machine and code a report was measured on.
type machineInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	MemTotal   string `json:"mem_total"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GitSHA     string `json:"git_sha"`
	GitDirty   *bool  `json:"git_dirty"`
	// SourceSHA256 hashes every .go, go.mod and golden file of the tree,
	// so runs from a checkout without git history still name their code.
	SourceSHA256 string `json:"source_sha256"`
	DataDirFS    string `json:"data_dir_fs"`
}

func recordMachine(dataDir string) machineInfo {
	m := machineInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        procField("/proc/cpuinfo", "model name"),
		MemTotal:   procField("/proc/meminfo", "MemTotal"),
		GitSHA:     "unknown (not a git checkout)",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitSHA = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			dirty := len(strings.TrimSpace(string(st))) > 0
			m.GitDirty = &dirty
		}
	}
	m.SourceSHA256 = sourceDigest(".")
	m.DataDirFS = fsType(dataDir)
	return m
}

// procField returns the first "key: value" value of a /proc file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the tree's Go sources, module files and goldens in
// path order, skipping build output.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		ext := filepath.Ext(path)
		if d.Type().IsRegular() && (ext == ".go" || ext == ".json" || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x01021997: "9p", 0x6a656a63: "virtiofs",
		0x65735546: "fuse", 0x2FC12FC1: "zfs", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%X", st.Type)
}

// cpuTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat. Steal is time the hypervisor ran someone else on this
// machine's CPUs; a run with much of it measured a slower machine.
func cpuTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	for i, v := range fields[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = n
		}
	}
	return steal, total
}

// stealPct is the share of CPU time stolen since the ticks s0, t0.
func stealPct(s0, t0 uint64) float64 {
	s1, t1 := cpuTicks()
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0) * 100
}
