package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"gnnvault/internal/bundle"
	"gnnvault/internal/datasets"
	"gnnvault/internal/enclave"
	"gnnvault/internal/graph"
	"gnnvault/internal/substitute"
)

// deployTiny trains and deploys a tiny vault for deployment tests.
func deployTiny(t *testing.T, design RectifierDesign) (*Vault, *PipelineResult, *datasets.Dataset) {
	t.Helper()
	ds := tinyDataset()
	cfg := PipelineConfig{
		Spec: tinySpec(), Design: design,
		SubKind: substitute.KindKNN, KNNK: 2,
		Train:        TrainConfig{Epochs: 40, LR: 0.02, WeightDecay: 5e-4, Seed: 5},
		SkipOriginal: true,
	}
	res := RunPipeline(ds, cfg)
	v, err := Deploy(res.Backbone, res.Rectifier, ds.Graph, enclave.DefaultCostModel())
	if err != nil {
		t.Fatalf("Deploy(%s): %v", design, err)
	}
	return v, res, ds
}

func TestDeployAndPredictAllDesigns(t *testing.T) {
	for _, design := range Designs {
		v, res, ds := deployTiny(t, design)
		labels, bd, err := v.Predict(ds.X)
		if err != nil {
			t.Fatalf("%s: Predict: %v", design, err)
		}
		if len(labels) != ds.X.Rows {
			t.Fatalf("%s: %d labels for %d nodes", design, len(labels), ds.X.Rows)
		}
		if err := VerifyLabelOnly(labels, ds.NumClasses); err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		// The deployed prediction must match the software rectifier.
		acc := 0
		embs := selectEmbeddings(res.Backbone.Embeddings(ds.X), res.Rectifier.RequiredEmbeddings())
		want := res.Rectifier.Forward(embs, false).ArgmaxRows()
		for i := range labels {
			if labels[i] == want[i] {
				acc++
			}
		}
		if acc != len(labels) {
			t.Fatalf("%s: deployed prediction differs from software rectifier (%d/%d match)",
				design, acc, len(labels))
		}
		if bd.Total() <= 0 {
			t.Fatalf("%s: breakdown has no time: %+v", design, bd)
		}
		if bd.PeakEPCBytes <= 0 || bd.PeakEPCBytes > v.Enclave.EPCLimit() {
			t.Fatalf("%s: peak EPC %d outside (0, limit]", design, bd.PeakEPCBytes)
		}
	}
}

func TestSeriesTransfersLeast(t *testing.T) {
	// Fig. 6's shape: series sends only the final hidden embedding, so its
	// transfer payload is strictly smaller than parallel's and cascaded's.
	in := map[RectifierDesign]int64{}
	for _, design := range Designs {
		v, _, ds := deployTiny(t, design)
		_, bd, err := v.Predict(ds.X)
		if err != nil {
			t.Fatal(err)
		}
		in[design] = bd.BytesIn
	}
	if in[Series] >= in[Parallel] || in[Series] >= in[Cascaded] {
		t.Fatalf("transfer bytes = %v; series should be smallest", in)
	}
}

func TestSealedArtifactsAreCiphertext(t *testing.T) {
	v, res, _ := deployTiny(t, Series)
	params, coo := v.SealedArtifacts()
	plainParams := res.Rectifier.MarshalParams()
	if bytes.Contains(params, plainParams[:32]) {
		t.Fatal("sealed params contain plaintext prefix")
	}
	if len(coo) == 0 || len(params) == 0 {
		t.Fatal("sealed artifacts empty")
	}
	// The enclave itself can unseal them.
	got, err := v.Enclave.Unseal(params)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if !bytes.Equal(got, plainParams) {
		t.Fatal("unsealed params differ")
	}
}

func TestDeployFailsWhenEPCTooSmall(t *testing.T) {
	ds := tinyDataset()
	cfg := PipelineConfig{
		Spec: tinySpec(), Design: Series,
		SubKind: substitute.KindKNN, KNNK: 2,
		Train:        TrainConfig{Epochs: 2, LR: 0.02, Seed: 6},
		SkipOriginal: true,
	}
	res := RunPipeline(ds, cfg)
	cm := enclave.DefaultCostModel()
	cm.EPCBytes = 1024 // absurdly small EPC
	_, err := Deploy(res.Backbone, res.Rectifier, ds.Graph, cm)
	if !errors.Is(err, enclave.ErrEPCExhausted) {
		t.Fatalf("err = %v, want ErrEPCExhausted", err)
	}
}

func TestPredictTooLargeForEPCFails(t *testing.T) {
	v, _, ds := deployTiny(t, Parallel)
	// Shrink the EPC post-deploy is not possible; instead deploy with a
	// limit that fits the static state but not the per-inference payload.
	cm := enclave.DefaultCostModel()
	static := v.rectifier.ParamBytes() + v.rectifier.Adjacency().NumBytes()
	cm.EPCBytes = static + 100 // embeddings won't fit
	v2, err := Deploy(v.Backbone, v.rectifier, v.privateGraph, cm)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if _, _, err := v2.Predict(ds.X); !errors.Is(err, enclave.ErrEPCExhausted) {
		t.Fatalf("err = %v, want ErrEPCExhausted", err)
	}
}

func TestUnprotectedInference(t *testing.T) {
	ds := tinyDataset()
	orig := TrainOriginal(ds, tinySpec(), TrainConfig{Epochs: 30, LR: 0.02, Seed: 7})
	labels, elapsed := UnprotectedInference(orig, ds.X)
	if len(labels) != ds.X.Rows || elapsed <= 0 {
		t.Fatalf("labels=%d elapsed=%v", len(labels), elapsed)
	}
	// One engine: the compiled program answers as the training forward does.
	want := orig.Logits(ds.X).ArgmaxRows()
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("node %d: compiled baseline says %d, nn forward %d", i, labels[i], want[i])
		}
	}
}

func TestEnclaveMemoryEstimates(t *testing.T) {
	_, res, ds := deployTiny(t, Series)
	recMem := EnclaveMemoryEstimate(res.Rectifier, res.Backbone.BlockDims, ds.X.Rows)
	if recMem <= 0 {
		t.Fatal("rectifier memory estimate not positive")
	}
	orig := TrainOriginal(ds, tinySpec(), TrainConfig{Epochs: 2, LR: 0.02, Seed: 8})
	fullMem := FullModelMemoryEstimate(orig, ds.X.Rows, ds.X.Cols)
	if fullMem <= recMem {
		t.Fatalf("full model (%d) should dwarf rectifier (%d)", fullMem, recMem)
	}
}

func TestPredictEPCReleasedBetweenRuns(t *testing.T) {
	v, _, ds := deployTiny(t, Parallel)
	base := v.Enclave.EPCUsed()
	for i := 0; i < 3; i++ {
		if _, _, err := v.Predict(ds.X); err != nil {
			t.Fatal(err)
		}
		if v.Enclave.EPCUsed() != base {
			t.Fatalf("run %d leaked EPC: %d != %d", i, v.Enclave.EPCUsed(), base)
		}
	}
}

// TestPredictConcurrentCallers: Predict owns a workspace per call, so
// callers sharing one vault need no lock and all read the same answer.
func TestPredictConcurrentCallers(t *testing.T) {
	v, _, ds := deployTiny(t, Parallel)
	want, _, err := v.Predict(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := v.Predict(ds.X)
			if err != nil {
				t.Errorf("Predict: %v", err)
				return
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("node %d: concurrent caller read %d, want %d", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if used := v.Enclave.EPCUsed(); used != v.PersistentBytes() {
		t.Fatalf("%d B of EPC in use after every caller returned, persistent residents are %d B", used, v.PersistentBytes())
	}
}

func TestVaultDesignAndParams(t *testing.T) {
	v, res, _ := deployTiny(t, Cascaded)
	if v.Design() != Cascaded {
		t.Fatalf("Design = %s", v.Design())
	}
	if v.RectifierParams() != res.Rectifier.NumParams() {
		t.Fatal("RectifierParams mismatch")
	}
}

func TestVerifyLabelOnly(t *testing.T) {
	if err := VerifyLabelOnly([]int{0, 1, 2}, 3); err != nil {
		t.Fatalf("valid labels rejected: %v", err)
	}
	if err := VerifyLabelOnly([]int{0, 3}, 3); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

// exportableVault builds a vault on a named spec (Import only supports
// M1/M2/M3) for bundle round-trip tests.
func exportableVault(t testing.TB) (*Vault, *datasets.Dataset) {
	t.Helper()
	ds := tinyDataset()
	cfg := PipelineConfig{
		Spec: M1(), Design: Parallel,
		SubKind: substitute.KindKNN, KNNK: 2,
		Train:        TrainConfig{Epochs: 25, LR: 0.02, Seed: 21},
		SkipOriginal: true,
	}
	res := RunPipeline(ds, cfg)
	v, err := Deploy(res.Backbone, res.Rectifier, ds.Graph, enclave.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return v, ds
}

func TestExportImportRoundTrip(t *testing.T) {
	v, ds := exportableVault(t)
	data, err := v.Export("cora")
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	imported, err := Import(data, enclave.DefaultCostModel())
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	want, _, err := v.Predict(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := imported.Predict(ds.X)
	if err != nil {
		t.Fatalf("imported Predict: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("imported vault predicts differently at node %d", i)
		}
	}
	if imported.Enclave.Measurement() != v.Enclave.Measurement() {
		t.Fatal("measurement changed across export/import")
	}
}

func TestImportRejectsTamperedSealedSection(t *testing.T) {
	v, _ := exportableVault(t)
	data, err := v.Export("cora")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupting any byte trips the outer integrity hash; a realistic
	// attacker rewrites a section and fixes the hash. Simulate by
	// rebuilding the bundle with a mangled sealed payload.
	b, err := bundle.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	sealed, _ := b.Section(bundle.SectionSealedRectifier)
	mangled := append([]byte(nil), sealed...)
	mangled[len(mangled)-1] ^= 1
	b.Add(bundle.SectionSealedRectifier, mangled)
	reData, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Import(reData, enclave.DefaultCostModel()); err == nil {
		t.Fatal("tampered sealed rectifier imported successfully")
	}
}

// editManifest re-marshals an exported bundle with its manifest edited and
// its integrity hash recomputed — what anyone holding the file can do.
func editManifest(t testing.TB, data []byte, edit func(*bundle.Manifest)) []byte {
	t.Helper()
	return editBundle(t, data, edit, "", nil)
}

// editBundle is editManifest that also replaces the body of one section
// (none when section is empty).
func editBundle(t testing.TB, data []byte, edit func(*bundle.Manifest), section string, forged []byte) []byte {
	t.Helper()
	b, err := bundle.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	man := b.Manifest
	edit(&man)
	b2 := bundle.New(b.Measurement, man)
	for _, name := range b.Names() {
		body, _ := b.Section(name)
		if name == section {
			body = forged
		}
		b2.Add(name, body)
	}
	out, err := b2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestImportRejectsWrongMeasurement(t *testing.T) {
	v, _ := exportableVault(t)
	data, err := v.Export("cora")
	if err != nil {
		t.Fatal(err)
	}
	// Re-declare the bundle as a series-design build: the device's enclave
	// measurement will not match and the sealed data must stay opaque.
	reData := editManifest(t, data, func(m *bundle.Manifest) { m.Design = string(Series) })
	if _, err := Import(reData, enclave.DefaultCostModel()); err == nil {
		t.Fatal("measurement mismatch not detected")
	}
}

// hostileManifestEdits are manifest edits no constructor may ever see:
// each must come back from Import as ErrBadBundle — not as a panic, and
// not after allocating anything the size of a forged dimension.
var hostileManifestEdits = []struct {
	name string
	edit func(*bundle.Manifest)
}{
	{"unknown spec", func(m *bundle.Manifest) { m.ModelSpec = "M9" }},
	{"unknown conv", func(m *bundle.Manifest) { m.Conv = "transformer" }},
	{"unknown design", func(m *bundle.Manifest) { m.Design = "bogus" }},
	{"negative classes", func(m *bundle.Manifest) { m.Classes = -1 }},
	{"negative feature dim", func(m *bundle.Manifest) { m.FeatureDim = -5 }},
	{"huge feature dim", func(m *bundle.Manifest) { m.FeatureDim = 1e9 }},
	{"huge classes", func(m *bundle.Manifest) { m.Classes = 1 << 40 }},
	{"other spec", func(m *bundle.Manifest) { m.ModelSpec = "M3" }},
	{"other conv", func(m *bundle.Manifest) { m.Conv = string(ConvSAGE) }},
	{"zero nodes", func(m *bundle.Manifest) { m.Nodes = 0 }},
	{"wrong nodes", func(m *bundle.Manifest) { m.Nodes++ }},
	{"huge nodes", func(m *bundle.Manifest) { m.Nodes = math.MaxUint32 }},
}

func TestImportRejectsBadManifest(t *testing.T) {
	v, _ := exportableVault(t)
	data, err := v.Export("cora")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hostileManifestEdits {
		t.Run(h.name, func(t *testing.T) {
			if _, err := Import(editManifest(t, data, h.edit), enclave.DefaultCostModel()); !errors.Is(err, ErrBadBundle) {
				t.Fatalf("err = %v, want ErrBadBundle", err)
			}
		})
	}
}

// TestImportRejectsForgedCOOHeader: the substitute graph travels in the
// clear, and its 12-byte header names a node count that sizes the CSR's
// row pointers. A header claiming 2³²−1 nodes and no edges must come back
// as ErrBadBundle having allocated nothing of that size — whether the
// manifest still tells the truth (the header disagrees with it) or was
// edited to agree (no enclave under the importing cost model holds that
// many rows).
func TestImportRejectsForgedCOOHeader(t *testing.T) {
	v, _ := exportableVault(t)
	data, err := v.Export("cora")
	if err != nil {
		t.Fatal(err)
	}
	forged := graph.MarshalCOO(graph.New(0, nil))
	binary.LittleEndian.PutUint32(forged[4:], math.MaxUint32)
	for _, c := range []struct {
		name string
		edit func(*bundle.Manifest)
	}{
		{"honest manifest", func(*bundle.Manifest) {}},
		{"agreeing manifest", func(m *bundle.Manifest) { m.Nodes = math.MaxUint32 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			hostile := editBundle(t, data, c.edit, bundle.SectionSubstituteCOO, forged)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Import(hostile, enclave.DefaultCostModel())
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadBundle) {
				t.Fatalf("err = %v, want ErrBadBundle", err)
			}
			// Parsing copies the bundle a few times over; the forged count
			// would be 32 GB of row pointers.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(hostile))+1<<20 {
				t.Fatalf("refusing the bundle allocated %d B for a %d B file", grew, len(hostile))
			}
		})
	}
}

// FuzzImport: whatever a manifest says, Import answers with a vault or an
// error — never a panic — and a manifest that differs from the exported
// one in anything but its free-text fields never yields a vault.
func FuzzImport(f *testing.F) {
	v, _ := exportableVault(f)
	data, err := v.Export("cora")
	if err != nil {
		f.Fatal(err)
	}
	b, err := bundle.Unmarshal(data)
	if err != nil {
		f.Fatal(err)
	}
	good := b.Manifest
	f.Add(good.ModelSpec, good.Design, good.Conv, good.Classes, good.FeatureDim, good.Nodes)
	for _, h := range hostileManifestEdits {
		m := good
		h.edit(&m)
		f.Add(m.ModelSpec, m.Design, m.Conv, m.Classes, m.FeatureDim, m.Nodes)
	}
	f.Fuzz(func(t *testing.T, spec, design, conv string, classes, featureDim, nodes int) {
		m := good
		m.ModelSpec, m.Design, m.Conv, m.Classes, m.FeatureDim, m.Nodes = spec, design, conv, classes, featureDim, nodes
		got, err := Import(editManifest(t, data, func(man *bundle.Manifest) { *man = m }), enclave.DefaultCostModel())
		if (err == nil) != (m == good) {
			t.Fatalf("manifest %+v (exported %+v): err = %v", m, good, err)
		}
		if err == nil {
			got.Undeploy()
		}
	})
}

// FuzzBundleLoad: a bundle with one section's bytes flipped, truncated or
// extended — and its integrity hash recomputed, as anyone holding the file
// can — imports as a vault or fails with an error, never a panic; a
// changed sealed section never yields a vault.
func FuzzBundleLoad(f *testing.F) {
	v, _ := exportableVault(f)
	data, err := v.Export("cora")
	if err != nil {
		f.Fatal(err)
	}
	b, err := bundle.Unmarshal(data)
	if err != nil {
		f.Fatal(err)
	}
	names := b.Names()
	for i := range names {
		f.Add(uint8(i), uint8(0), uint32(5), byte(0x80)) // flip
		f.Add(uint8(i), uint8(1), uint32(11), byte(0))   // truncate
		f.Add(uint8(i), uint8(2), uint32(3), byte(0xff)) // append
	}
	f.Fuzz(func(t *testing.T, sec, op uint8, at uint32, x byte) {
		name := names[int(sec)%len(names)]
		body, _ := b.Section(name)
		mut := append([]byte(nil), body...)
		switch op % 3 {
		case 0:
			if len(mut) == 0 {
				return
			}
			mut[int(at%uint32(len(mut)))] ^= x | 1
		case 1:
			if len(mut) == 0 {
				return
			}
			mut = mut[:int(at%uint32(len(mut)))]
		case 2:
			mut = append(mut, bytes.Repeat([]byte{x}, 1+int(at%64))...)
		}
		got, err := Import(editBundle(t, data, func(*bundle.Manifest) {}, name, mut), enclave.DefaultCostModel())
		if (got == nil) == (err == nil) {
			t.Fatalf("section %s, op %d: vault %v with err %v", name, op%3, got != nil, err)
		}
		if err != nil {
			return
		}
		got.Undeploy()
		if name == bundle.SectionSealedRectifier || name == bundle.SectionSealedGraph {
			t.Fatalf("section %s changed (op %d) and still imported", name, op%3)
		}
	})
}

// TestImportChargesAndReturnsEPC: an imported vault holds exactly the
// persistent EPC its exporter did, knows it, and gives it all back — and
// a vault whose residents do not fit leaves nothing charged behind.
func TestImportChargesAndReturnsEPC(t *testing.T) {
	v, _ := exportableVault(t)
	data, err := v.Export("cora")
	if err != nil {
		t.Fatal(err)
	}
	imported, err := Import(data, enclave.DefaultCostModel())
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	if got, want := imported.PersistentBytes(), v.PersistentBytes(); got != want || imported.Enclave.EPCUsed() != want {
		t.Fatalf("imported vault reports %d B persistent with %d B charged, exporter holds %d", got, imported.Enclave.EPCUsed(), want)
	}
	imported.Undeploy()
	if used := imported.Enclave.EPCUsed(); used != 0 {
		t.Fatalf("%d B still charged after Undeploy", used)
	}

	// Room for the parameters but not the adjacency: the first charge must
	// be rolled back. Import and DeployInto share the one helper, and only
	// DeployInto lets the test keep hold of the enclave.
	small := enclave.DefaultCostModel()
	small.EPCBytes = v.rectifier.ParamBytes() + 1
	if _, err := Import(data, small); !errors.Is(err, enclave.ErrEPCExhausted) {
		t.Fatalf("Import into %d B of EPC: err = %v, want ErrEPCExhausted", small.EPCBytes, err)
	}
	encl := enclave.New(small, v.rectifier.Identity())
	if _, err := DeployInto(encl, v.Backbone, v.rectifier, v.privateGraph); !errors.Is(err, enclave.ErrEPCExhausted) {
		t.Fatalf("DeployInto %d B of EPC: err = %v, want ErrEPCExhausted", small.EPCBytes, err)
	}
	if used := encl.EPCUsed(); used != 0 {
		t.Fatalf("failed admission left %d B charged", used)
	}
}

func TestExportDNNBackboneFails(t *testing.T) {
	ds := tinyDataset()
	bb := TrainBackbone(ds, M1(), substitute.KindDNN, nil, TrainConfig{Epochs: 2, LR: 0.02, Seed: 22})
	rec := TrainRectifier(ds, bb, Series, TrainConfig{Epochs: 2, LR: 0.02, Seed: 22})
	v, err := Deploy(bb, rec, ds.Graph, enclave.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Export("cora"); err == nil {
		t.Fatal("DNN backbone export should fail")
	}
}
