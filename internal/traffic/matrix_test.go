package traffic

import (
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/capture"
	"repro/internal/core"
)

// The checked-in golden matrix (testdata/matrix.csv):
//
//	0,0.5,0,0.25
//	1,0,0,0
//	0,0.75,0,1
//	0.1,0,0.2,0
const goldenPath = "testdata/matrix.csv"

func approxRate(got, want core.Rate) bool {
	return math.Abs(float64(got)-float64(want)) < 1e-6*float64(core.Gbps)
}

func TestLoadCSVMatrixGolden(t *testing.T) {
	m, err := LoadMatrix(goldenPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 4 {
		t.Fatalf("N = %d, want 4", m.N)
	}
	want := map[[2]int]float64{
		{0, 1}: 0.5, {0, 3}: 0.25,
		{1, 0}: 1,
		{2, 1}: 0.75, {2, 3}: 1,
		{3, 0}: 0.1, {3, 2}: 0.2,
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !approxRate(m.Demand[i][j], core.Rate(want[[2]int{i, j}])*core.Gbps) {
				t.Errorf("Demand[%d][%d] = %v, want %vGbps", i, j, m.Demand[i][j], want[[2]int{i, j}])
			}
		}
	}
	if m.Flows() != 7 {
		t.Errorf("Flows() = %d, want 7", m.Flows())
	}

	// Scale multiplies every demand.
	scaled, err := LoadMatrix(goldenPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Demand {
		for j := range m.Demand[i] {
			if !approxRate(scaled.Demand[i][j], 2*m.Demand[i][j]) {
				t.Errorf("scaled Demand[%d][%d] = %v, want %v", i, j, scaled.Demand[i][j], 2*m.Demand[i][j])
			}
		}
	}
}

func TestLoadJSONMatrixArray(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, []byte(`[[0, 1.5], [0.5, 0]]`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadMatrix(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 2 || !approxRate(m.Demand[0][1], core.Rate(1.5)*core.Gbps) || !approxRate(m.Demand[1][0], core.Rate(0.5)*core.Gbps) {
		t.Fatalf("loaded %+v", m)
	}
}

func TestLoadJSONMatrixDemandList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	// Duplicate (0,2) entries accumulate; hosts stretches past the
	// largest index.
	data := `{"hosts": 4, "demands": [
		{"src": 0, "dst": 2, "gbps": 1},
		{"src": 0, "dst": 2, "gbps": 0.5},
		{"src": 3, "dst": 1, "gbps": 2}
	]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadMatrix(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 4 {
		t.Fatalf("N = %d, want 4", m.N)
	}
	if !approxRate(m.Demand[0][2], core.Rate(1.5)*core.Gbps) || !approxRate(m.Demand[3][1], core.Rate(2)*core.Gbps) {
		t.Fatalf("loaded %+v", m.Demand)
	}
}

func TestMatrixPattern(t *testing.T) {
	m, err := LoadMatrix(goldenPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := m.Pattern(core.Second, 2*core.Second)(4)
	if len(specs) != 7 {
		t.Fatalf("got %d specs, want 7", len(specs))
	}
	for i, s := range specs {
		if s.Start != core.Second || s.Duration != 2*core.Second {
			t.Fatalf("spec %d timing lost: %+v", i, s)
		}
		if !approxRate(s.Rate, m.Demand[s.SrcHost][s.DstHost]) {
			t.Fatalf("spec %d rate %v != demand %v", i, s.Rate, m.Demand[s.SrcHost][s.DstHost])
		}
	}
	// A smaller fabric truncates the matrix: only (0,1) and (1,0) fit.
	small := m.Pattern(0, 0)(2)
	if len(small) != 2 {
		t.Fatalf("2-host pattern = %+v", small)
	}
}

func TestLoadMatrixRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name, path, wantErr string
	}{
		{"missing", filepath.Join(dir, "nope.csv"), "no such file"},
		{"bad extension", write("m.txt", "0,1\n1,0\n"), "unsupported extension"},
		{"not square", write("rect.csv", "0,1,2\n1,0,3\n"), "square"},
		{"negative", write("neg.csv", "0,-1\n1,0\n"), "negative demand"},
		{"NaN cell", write("nan.csv", "0,NaN\n1,0\n"), "non-finite demand"},
		{"infinite cell", write("inf.csv", "0,+Inf\n1,0\n"), "non-finite demand"},
		{"empty json", write("empty.json", "[]"), "empty"},
		{"no demands", write("none.json", `{"demands": []}`), "no demands"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadMatrix(tc.path, 1)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("LoadMatrix(%s) error = %v, want it to contain %q", tc.path, err, tc.wantErr)
			}
		})
	}
	for _, scale := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := LoadMatrix(goldenPath, scale); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
	if _, err := LoadMatrix(write("huge.csv", "0,1e300\n1,0\n"), 1e300); err == nil {
		t.Error("a demand that overflows to +Inf accepted")
	}
}

// TestMatrixFromCaptureTrace builds a small pcapng with the capture
// package's own writer, then derives a demand matrix from it — the
// public-trace stand-in pipeline end to end: per-(src,dst) byte counts
// over the trace's span become scaled rates, hosts ordered by IP.
func TestMatrixFromCaptureTrace(t *testing.T) {
	dir := t.TempDir()
	c, err := capture.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := capture.Endpoint{Name: "h0", MAC: core.MACFromUint64(1), IP: netip.MustParseAddr("10.0.0.1"), Port: 100}
	b := capture.Endpoint{Name: "h1", MAC: core.MACFromUint64(2), IP: netip.MustParseAddr("10.0.0.2"), Port: 200}
	s, err := c.Session("h0--h1", a, b)
	if err != nil {
		t.Fatal(err)
	}
	// h0 sends far more than h1; packets span 2s of virtual time.
	s.Data(capture.AtoB, make([]byte, 8000), 0)
	s.Data(capture.BtoA, make([]byte, 1000), core.Second)
	s.Data(capture.AtoB, make([]byte, 8000), 2*core.Second)
	files := c.Files()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("capture wrote %d files", len(files))
	}

	m, err := LoadMatrix(files[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 2 {
		t.Fatalf("N = %d, want 2", m.N)
	}
	// Host 0 is 10.0.0.1 (sorted address order): its tx dominates.
	if m.Demand[0][1] <= m.Demand[1][0] || m.Demand[1][0] <= 0 {
		t.Fatalf("demand = %v / %v, want h0->h1 to dominate and both non-zero",
			m.Demand[0][1], m.Demand[1][0])
	}
	// 16000 data bytes (plus TCP headers) over a 2s span: ≥ 64 kbps.
	if m.Demand[0][1] < core.Rate(16000*8/2) {
		t.Errorf("h0->h1 rate %v below the data floor", m.Demand[0][1])
	}

	// Scale multiplies the derived rates.
	scaled, err := LoadMatrix(files[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(scaled.Demand[0][1])-10*float64(m.Demand[0][1])) > 1e-6 {
		t.Errorf("scale 10: %v, want 10×%v", scaled.Demand[0][1], m.Demand[0][1])
	}
}

func TestLoadRateSchedule(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("sched.csv", `# capacity trace
0s,agg-0-0,core-0-0,0.5
1.5s,agg-0-0,core-0-0,1
1.5s,agg-0-1,core-1-0,0.25
`)
	sched, err := LoadRateSchedule(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 3 {
		t.Fatalf("got %d events, want 3", len(sched))
	}
	want := RateSchedule{
		{At: 0, A: "agg-0-0", B: "core-0-0", Rate: core.Rate(0.5) * core.Gbps},
		{At: 1500 * core.Millisecond, A: "agg-0-0", B: "core-0-0", Rate: core.Gbps},
		{At: 1500 * core.Millisecond, A: "agg-0-1", B: "core-1-0", Rate: core.Rate(0.25) * core.Gbps},
	}
	for i := range want {
		if sched[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, sched[i], want[i])
		}
	}

	rejects := []struct {
		name, content, wantErr string
	}{
		{"empty", "# only a comment\n", "empty"},
		{"bad time", "soon,a,b,1\n", "bad time"},
		{"negative time", "-1s,a,b,1\n", "negative time"},
		{"bad rate", "1s,a,b,fast\n", "bad rate"},
		{"negative rate", "1s,a,b,-1\n", "negative rate"},
		{"NaN rate", "1s,a,b,NaN\n", "non-finite rate"},
		{"infinite rate", "1s,a,b,inf\n", "non-finite rate"},
		{"decreasing", "2s,a,b,1\n1s,a,b,1\n", "before previous"},
		{"wrong fields", "1s,a,1\n", "wrong number of fields"},
	}
	for _, tc := range rejects {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadRateSchedule(write(tc.name+".csv", tc.content))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want it to contain %q", err, tc.wantErr)
			}
		})
	}
	if _, err := LoadRateSchedule(filepath.Join(dir, "nope.csv")); err == nil {
		t.Error("missing file accepted")
	}
}
