package traffic

// Trace-driven traffic matrices: measured (or published) demand
// matrices drive the workload instead of synthetic patterns. Three
// sources share one Matrix type — CSV (a square matrix of Gbps), JSON
// (either a 2D array or a demand list) and pcapng (per-(src,dst) byte
// counts from a packet trace, the public-trace stand-in move when real
// matrices are restricted).

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/wire"
)

// Matrix is an N×N demand matrix: Demand[i][j] is the offered rate from
// host i to host j (zero diagonal, zero = no flow).
type Matrix struct {
	N      int
	Demand [][]core.Rate
}

// LoadMatrix reads a demand matrix from path, dispatching on the file
// extension: .csv (square matrix of Gbps), .json (2D array of Gbps or
// {"demands":[{"src":..,"dst":..,"gbps":..}]}), .pcapng (per-(src,dst)
// byte counts over the trace's time span). Every loaded rate is
// multiplied by scale (use 1 for as-is).
func LoadMatrix(path string, scale float64) (*Matrix, error) {
	if err := checkScale(scale); err != nil {
		return nil, err
	}
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".csv":
		return loadCSVMatrix(path, scale)
	case ".json":
		return loadJSONMatrix(path, scale)
	case ".pcapng", ".pcap":
		tr, err := capture.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return MatrixFromTrace(tr, scale)
	default:
		return nil, fmt.Errorf("traffic: matrix file %q: unsupported extension %q (want .csv, .json or .pcapng)", path, ext)
	}
}

// loadCSVMatrix parses a square CSV of Gbps values; row i column j is
// the demand from host i to host j.
func loadCSVMatrix(path string, scale float64) (*Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("traffic: matrix %s: %w", path, err)
	}
	n := len(rows)
	if n == 0 {
		return nil, fmt.Errorf("traffic: matrix %s is empty", path)
	}
	m := newMatrix(n)
	for i, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("traffic: matrix %s: row %d has %d columns, want %d (square)", path, i, len(row), n)
		}
		for j, cell := range row {
			v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
			if err != nil {
				return nil, fmt.Errorf("traffic: matrix %s: row %d column %d: %w", path, i, j, err)
			}
			if m.Demand[i][j], err = demand(v, scale); err != nil {
				return nil, fmt.Errorf("traffic: matrix %s: %w at (%d,%d)", path, err, i, j)
			}
		}
	}
	return m, nil
}

// jsonMatrix is the object form of a JSON demand file.
type jsonMatrix struct {
	Hosts   int `json:"hosts"`
	Demands []struct {
		Src  int     `json:"src"`
		Dst  int     `json:"dst"`
		Gbps float64 `json:"gbps"`
	} `json:"demands"`
}

// loadJSONMatrix parses either a 2D array of Gbps or a demand list.
func loadJSONMatrix(path string, scale float64) (*Matrix, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "[") {
		var rows [][]float64
		if err := json.Unmarshal(data, &rows); err != nil {
			return nil, fmt.Errorf("traffic: matrix %s: %w", path, err)
		}
		n := len(rows)
		if n == 0 {
			return nil, fmt.Errorf("traffic: matrix %s is empty", path)
		}
		m := newMatrix(n)
		for i, row := range rows {
			if len(row) != n {
				return nil, fmt.Errorf("traffic: matrix %s: row %d has %d columns, want %d (square)", path, i, len(row), n)
			}
			for j, v := range row {
				if m.Demand[i][j], err = demand(v, scale); err != nil {
					return nil, fmt.Errorf("traffic: matrix %s: %w at (%d,%d)", path, err, i, j)
				}
			}
		}
		return m, nil
	}
	var jm jsonMatrix
	if err := json.Unmarshal(data, &jm); err != nil {
		return nil, fmt.Errorf("traffic: matrix %s: %w", path, err)
	}
	n := jm.Hosts
	for _, d := range jm.Demands {
		if d.Src >= n {
			n = d.Src + 1
		}
		if d.Dst >= n {
			n = d.Dst + 1
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("traffic: matrix %s has no demands", path)
	}
	m := newMatrix(n)
	for i, d := range jm.Demands {
		if d.Src < 0 || d.Dst < 0 || d.Gbps < 0 {
			return nil, fmt.Errorf("traffic: matrix %s: demand %d has negative fields", path, i)
		}
		r, err := demand(d.Gbps, scale)
		if err != nil {
			return nil, fmt.Errorf("traffic: matrix %s: demand %d: %w", path, i, err)
		}
		m.Demand[d.Src][d.Dst] += r
	}
	return m, nil
}

// checkScale refuses a matrix scale that is not a positive finite number.
func checkScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("traffic: matrix scale must be a positive finite number, got %v", scale)
	}
	return nil
}

// demand converts v Gbps, scaled, into a rate. Negative, NaN and
// infinite demands are refused: a NaN rate stalls the max–min solver.
func demand(v, scale float64) (core.Rate, error) {
	if v < 0 {
		return 0, fmt.Errorf("negative demand %v", v)
	}
	r := core.Rate(v*scale) * core.Gbps
	if !r.Finite() {
		return 0, fmt.Errorf("non-finite demand %v Gbps at scale %v", v, scale)
	}
	return r, nil
}

// MatrixFromTrace derives a demand matrix from a packet trace: bytes
// are accumulated per (src IP, dst IP) over the trace's delivery-time
// span and converted to average rates; the distinct IPs become host
// indices in sorted address order. scale multiplies the derived rates
// (measured control plane traces are tiny next to Gbps data planes, so
// a large scale turns a trace's *shape* into a drivable workload — the
// public-trace stand-in pipeline).
func MatrixFromTrace(tr *capture.Trace, scale float64) (*Matrix, error) {
	if err := checkScale(scale); err != nil {
		return nil, err
	}
	type pair struct{ src, dst netip.Addr }
	bytes := make(map[pair]uint64)
	addrs := make(map[netip.Addr]bool)
	var first, last core.Time
	for i, pkt := range tr.Packets {
		_, rest, err := wire.DecodeEthernet(pkt.Data)
		if err != nil {
			return nil, fmt.Errorf("traffic: trace %s packet %d: %w", tr.Path, i, err)
		}
		ip, payload, err := wire.DecodeIPv4(rest)
		if err != nil {
			return nil, fmt.Errorf("traffic: trace %s packet %d: %w", tr.Path, i, err)
		}
		bytes[pair{ip.Src, ip.Dst}] += uint64(len(payload))
		addrs[ip.Src] = true
		addrs[ip.Dst] = true
		if i == 0 || pkt.Time < first {
			first = pkt.Time
		}
		if pkt.Time > last {
			last = pkt.Time
		}
	}
	if len(bytes) == 0 {
		return nil, fmt.Errorf("traffic: trace %s holds no IPv4 packets", tr.Path)
	}
	span := last - first
	if span <= 0 {
		span = core.Second // single-instant trace: treat counts as per-second
	}
	hosts := make([]netip.Addr, 0, len(addrs))
	for a := range addrs {
		hosts = append(hosts, a)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].Less(hosts[j]) })
	index := make(map[netip.Addr]int, len(hosts))
	for i, a := range hosts {
		index[a] = i
	}
	m := newMatrix(len(hosts))
	for p, b := range bytes {
		if p.src == p.dst {
			continue
		}
		rate := core.Rate(float64(b*8) / span.Seconds() * scale)
		if !rate.Finite() {
			return nil, fmt.Errorf("traffic: trace %s: non-finite demand %v -> %v at scale %v", tr.Path, p.src, p.dst, scale)
		}
		m.Demand[index[p.src]][index[p.dst]] += rate
	}
	return m, nil
}

// newMatrix allocates a zeroed n×n matrix.
func newMatrix(n int) *Matrix {
	d := make([][]core.Rate, n)
	for i := range d {
		d[i] = make([]core.Rate, n)
	}
	return &Matrix{N: n, Demand: d}
}

// Flows counts the non-zero off-diagonal demands.
func (m *Matrix) Flows() int {
	count := 0
	for i, row := range m.Demand {
		for j, d := range row {
			if i != j && d > 0 {
				count++
			}
		}
	}
	return count
}

// Pattern schedules one long-lived flow per non-zero demand entry,
// mapped onto the topology's hosts by index. Entries beyond the
// topology's host count are skipped (a 4-host matrix drives the first
// 4 hosts of a larger fabric; a larger matrix is truncated).
func (m *Matrix) Pattern(start, duration core.Time) Pattern {
	return func(nHosts int) []Spec {
		var out []Spec
		flowID := 0
		for i, row := range m.Demand {
			if i >= nHosts {
				break
			}
			for j, d := range row {
				if j >= nHosts || i == j || d <= 0 {
					continue
				}
				out = append(out, Spec{
					SrcHost: i, DstHost: j,
					Rate: d, Start: start, Duration: duration,
					Proto:   core.ProtoUDP,
					SrcPort: uint16(10000 + flowID%50000),
					DstPort: uint16(20000 + j%40000),
				})
				flowID++
			}
		}
		return out
	}
}
