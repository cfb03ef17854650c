package experiments

import (
	"os"
	"runtime"
	"strings"
)

// Machine is the context a wall-clock figure was measured in. BENCH records
// carry it so a reader compares wall-clock numbers only against a reference
// taken on the same kind of machine.
type Machine struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

// CurrentMachine describes the machine the process runs on.
func CurrentMachine() Machine {
	return Machine{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel returns the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
