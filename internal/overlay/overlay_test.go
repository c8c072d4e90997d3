package overlay

import (
	"strings"
	"testing"
)

const sample = `
# the paper's Case 1 overlay
node ucsb addr ucsb.example:7000
node denver depot addr denver.example:5000
node uiuc addr uiuc.example:7000
edge ucsb denver 31 100 0.00025
edge denver uiuc 35 100 0.00025   # trailing comment
`

func TestParseSample(t *testing.T) {
	g, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes()) != 3 {
		t.Fatalf("nodes=%v", g.Nodes())
	}
	n, ok := g.Node("denver")
	if !ok || !n.Depot || n.Addr != "denver.example:5000" {
		t.Fatalf("denver=%+v", n)
	}
	path, rtt, err := g.MinLatencyPath("ucsb", "uiuc")
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || rtt < 0.065 || rtt > 0.067 {
		t.Fatalf("path=%v rtt=%v", path, rtt)
	}
}

func TestParsePlansEndToEnd(t *testing.T) {
	g, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	plans, err := g.RankCandidates("ucsb", "uiuc", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	plan := plans[0]
	if !plan.UsesDepots() {
		t.Fatal("case1-like overlay should cascade for 64M")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"banana ucsb",                       // unknown directive
		"node",                              // missing name
		"node a frobnicate",                 // unknown attribute
		"node a addr",                       // addr without value
		"edge a b 1 2",                      // wrong arity
		"edge a b x 2 0",                    // bad number
		"edge a b 1 2 1.5",                  // loss out of range
		"node a\nedge a ghost 1 2 0.001",    // unknown endpoint
		"node a\nnode b\nedge a b -1 2 0.1", // negative rtt
	}
	for _, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted %q", in)
		}
	}
}

func TestParseEmptyOK(t *testing.T) {
	g, err := Parse(strings.NewReader("\n# nothing\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes()) != 0 {
		t.Fatal("phantom nodes")
	}
}

func TestFormatNodes(t *testing.T) {
	g, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	out := FormatNodes(g)
	if !strings.Contains(out, "node denver depot addr denver.example:5000") {
		t.Fatalf("format:\n%s", out)
	}
	// Round-trip: the node lines parse back.
	g2, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Nodes()) != 3 {
		t.Fatal("round trip lost nodes")
	}
}
