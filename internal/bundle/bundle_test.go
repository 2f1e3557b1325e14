package bundle

import (
	"bytes"
	"testing"
	"testing/quick"
)

func sampleBundle() *Bundle {
	var m [32]byte
	copy(m[:], "measurement-of-the-rectifier")
	b := New(m, Manifest{
		Dataset: "cora", ModelSpec: "M1", Design: "parallel", Conv: "gcn",
		Classes: 7, FeatureDim: 128, Nodes: 600,
		ThetaBackbone: 20871, ThetaRectifier: 21944,
	})
	b.Add(SectionBackboneParams, []byte("backbone-weights"))
	b.Add(SectionSubstituteCOO, []byte("substitute-coo"))
	b.Add(SectionSealedRectifier, []byte{0xde, 0xad, 0xbe, 0xef})
	b.Add(SectionSealedGraph, []byte{0xca, 0xfe})
	return b
}

func TestRoundTrip(t *testing.T) {
	b := sampleBundle()
	data, err := b.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Measurement != b.Measurement {
		t.Error("measurement lost")
	}
	if got.Manifest != b.Manifest {
		t.Errorf("manifest = %+v, want %+v", got.Manifest, b.Manifest)
	}
	for _, name := range b.order {
		want, _ := b.Section(name)
		gotBody, ok := got.Section(name)
		if !ok || !bytes.Equal(gotBody, want) {
			t.Errorf("section %s lost", name)
		}
	}
}

func TestSectionOrderPreserved(t *testing.T) {
	b := sampleBundle()
	data, _ := b.Marshal()
	got, _ := Unmarshal(data)
	names := got.order
	if names[0] != SectionBackboneParams || names[3] != SectionSealedGraph {
		t.Fatalf("order = %v", names)
	}
}

func TestAddReplaces(t *testing.T) {
	b := sampleBundle()
	b.Add(SectionBackboneParams, []byte("new"))
	if len(b.order) != 4 {
		t.Fatal("Add duplicated a section")
	}
	body, _ := b.Section(SectionBackboneParams)
	if string(body) != "new" {
		t.Fatal("Add did not replace")
	}
}

func TestAddCopies(t *testing.T) {
	b := sampleBundle()
	payload := []byte("mutable")
	b.Add("x", payload)
	payload[0] = 'X'
	body, _ := b.Section("x")
	if body[0] == 'X' {
		t.Fatal("Add aliases caller memory")
	}
}

func TestIntegrityHashDetectsCorruption(t *testing.T) {
	data, _ := sampleBundle().Marshal()
	for _, idx := range []int{0, 10, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[idx] ^= 0xFF
		if _, err := Unmarshal(bad); err == nil {
			t.Errorf("corruption at byte %d not detected", idx)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"short":     {1, 2, 3},
		"truncated": func() []byte { d, _ := sampleBundle().Marshal(); return d[:len(d)-40] }(),
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestPropRoundTripArbitrarySections(t *testing.T) {
	f := func(m [32]byte, bodies [][]byte) bool {
		b := New(m, Manifest{Dataset: "d"})
		for i, body := range bodies {
			if i >= 8 {
				break
			}
			b.Add(string(rune('a'+i)), body)
		}
		data, err := b.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		for _, name := range b.order {
			want, _ := b.Section(name)
			gotBody, ok := got.Section(name)
			if !ok || !bytes.Equal(gotBody, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
