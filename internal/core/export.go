package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"gnnvault/internal/bundle"
	"gnnvault/internal/enclave"
	"gnnvault/internal/graph"
)

// Export packages a deployed vault into the on-disk bundle format a model
// vendor ships to devices: public backbone parameters and substitute graph
// in the clear, rectifier parameters and private adjacency sealed to the
// rectifier enclave's measurement.
func (v *Vault) Export(dataset string) ([]byte, error) {
	if v.Backbone.SubGraph == nil {
		return nil, fmt.Errorf("core: export requires a GNN backbone (DNN backbones have no substitute graph)")
	}
	man := bundle.Manifest{
		Dataset:        dataset,
		ModelSpec:      v.Backbone.Spec.Name,
		Design:         string(v.rectifier.Design),
		Conv:           string(v.rectifier.Conv),
		Classes:        v.Backbone.BlockDims[len(v.Backbone.BlockDims)-1],
		FeatureDim:     v.Backbone.FeatureDim,
		Nodes:          v.privateGraph.N(),
		ThetaBackbone:  v.Backbone.NumParams(),
		ThetaRectifier: v.rectifier.NumParams(),
	}
	b := bundle.New(v.Enclave.Measurement(), man)
	b.Add(bundle.SectionBackboneParams, v.Backbone.Model.MarshalParams())
	b.Add(bundle.SectionSubstituteCOO, graph.MarshalCOO(v.Backbone.SubGraph))
	b.Add(bundle.SectionSealedRectifier, v.sealedParams)
	b.Add(bundle.SectionSealedGraph, v.sealedGraph)
	return b.Marshal()
}

// ErrBadBundle is returned by Import, wrapped with the offending field,
// for a bundle whose manifest does not describe a deployment this build
// can construct: an unknown model spec, conv kind or design, a
// non-positive dimension, a node count no enclave of the importing cost
// model could hold, or dimensions that disagree with the sections they
// describe — a graph section that does not parse as the manifest's graph
// included. The manifest is outside input — the bundle's hash is an
// integrity check anyone can recompute, not an authenticator.
var ErrBadBundle = errors.New("core: bad bundle")

// convParamBytes returns the marshalled size of one in×out conv layer's
// parameters (nn.Model.MarshalParams: per tensor an 8-byte shape header
// and 8 bytes a scalar).
func convParamBytes(kind ConvKind, in, out int64) int64 {
	switch kind {
	case ConvSAGE: // W_self, W_nbr, b
		return 3*8 + 8*(2*in*out+out)
	case ConvGAT: // W, aₛ, aₜ, b
		return 4*8 + 8*(in*out+3*out)
	default: // GCN: W, b
		return 2*8 + 8*(in*out+out)
	}
}

// checkManifest validates a bundle manifest, before any constructor sees
// it, and resolves its model spec. The backbone parameter section's
// length must equal what the manifest's dimensions imply — by arithmetic,
// so a forged FeatureDim or Classes is refused before any weight matrix of
// that size is allocated. The node count sizes both graphs' row pointers,
// so it is bounded by what could ever be admitted under cost: the private
// operator's persistent charge (NormAdjacency.NumBytes) is 8 bytes of row
// pointer a node before its first edge.
func checkManifest(man bundle.Manifest, bbParams []byte, cost enclave.CostModel) (ModelSpec, error) {
	newSpec, ok := specs[man.ModelSpec]
	if !ok {
		return ModelSpec{}, fmt.Errorf("%w: unknown model spec %q", ErrBadBundle, man.ModelSpec)
	}
	spec := newSpec()
	spec.Conv = ConvKind(man.Conv)
	if spec.Conv != "" && !slices.Contains(ConvKinds, spec.Conv) {
		return spec, fmt.Errorf("%w: unknown conv kind %q", ErrBadBundle, man.Conv)
	}
	if !slices.Contains(Designs, RectifierDesign(man.Design)) {
		return spec, fmt.Errorf("%w: unknown rectifier design %q", ErrBadBundle, man.Design)
	}
	if man.Nodes <= 0 || int64(man.Nodes) >= cost.EPCBytes/8 {
		return spec, fmt.Errorf("%w: nodes %d with an EPC of %d bytes", ErrBadBundle, man.Nodes, cost.EPCBytes)
	}
	// Neither width can exceed the section's scalar count, which also
	// keeps the products below inside int64.
	if limit := len(bbParams) / 8; man.Classes <= 0 || man.Classes > limit || man.FeatureDim <= 0 || man.FeatureDim > limit {
		return spec, fmt.Errorf("%w: classes %d, feature_dim %d with %d parameter bytes", ErrBadBundle, man.Classes, man.FeatureDim, len(bbParams))
	}
	want, in := int64(8), int64(man.FeatureDim) // magic + tensor count
	for _, out := range append(append([]int{}, spec.BackboneHidden...), man.Classes) {
		want += convParamBytes(spec.Conv, in, int64(out))
		in = int64(out)
	}
	if int64(len(bbParams)) != want {
		return spec, fmt.Errorf("%w: backbone parameters are %d bytes, manifest dimensions (%s, feature_dim %d, classes %d) imply %d",
			ErrBadBundle, len(bbParams), man.ModelSpec, man.FeatureDim, man.Classes, want)
	}
	return spec, nil
}

// Import reconstructs a deployable Vault from a bundle on a device: it
// validates the manifest (ErrBadBundle), rebuilds the public backbone
// from the clear sections, launches a rectifier enclave of the
// architecture named in the manifest, verifies the measurement matches
// the bundle's, unseals the private sections inside it and charges the
// persistent residents exactly as Deploy does.
func Import(data []byte, cost enclave.CostModel) (*Vault, error) {
	b, err := bundle.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	man := b.Manifest
	bbParams, ok := b.Section(bundle.SectionBackboneParams)
	if !ok {
		return nil, fmt.Errorf("core: bundle missing backbone parameters")
	}
	spec, err := checkManifest(man, bbParams, cost)
	if err != nil {
		return nil, err
	}

	subCOO, ok := b.Section(bundle.SectionSubstituteCOO)
	if !ok {
		return nil, fmt.Errorf("core: bundle missing substitute graph")
	}
	sub, err := graph.UnmarshalCOO(subCOO, man.Nodes)
	if err != nil {
		return nil, fmt.Errorf("%w: substitute graph: %v", ErrBadBundle, err)
	}

	// Rebuild the public backbone.
	rng := rand.New(rand.NewSource(0)) // weights are overwritten below
	model, dims, convIdx, adj := buildBackboneModel(rng, spec, man.FeatureDim, man.Classes, sub)
	if err := model.UnmarshalParams(bbParams); err != nil {
		return nil, fmt.Errorf("core: backbone parameters: %w", err)
	}
	bb := &Backbone{
		Spec: spec, Kind: "imported", Model: model,
		SubGraph: sub, adj: adj, FeatureDim: man.FeatureDim,
		BlockDims: dims, convIdx: convIdx,
	}

	// Launch the rectifier enclave and verify the measurement before
	// trusting the sealed sections to it. The private graph is only known
	// after unsealing, so the rectifier is built in two phases: identity
	// first (for the measurement), wiring after.
	sealedGraph, ok := b.Section(bundle.SectionSealedGraph)
	if !ok {
		return nil, fmt.Errorf("core: bundle missing sealed graph")
	}
	sealedRec, ok := b.Section(bundle.SectionSealedRectifier)
	if !ok {
		return nil, fmt.Errorf("core: bundle missing sealed rectifier")
	}
	probe := &Rectifier{
		Design:       RectifierDesign(man.Design),
		Conv:         spec.Conv,
		BackboneDims: dims,
		Dims:         append(append([]int{}, spec.RectifierHidden...), man.Classes),
	}
	encl := enclave.New(cost, probe.Identity())
	if encl.Measurement() != b.Measurement {
		return nil, fmt.Errorf("core: enclave measurement mismatch: bundle was built for a different rectifier build")
	}
	cooBytes, err := encl.Unseal(sealedGraph)
	if err != nil {
		return nil, fmt.Errorf("core: unsealing private graph: %w", err)
	}
	private, err := graph.UnmarshalCOO(cooBytes, man.Nodes)
	if err != nil {
		return nil, fmt.Errorf("%w: private graph: %v", ErrBadBundle, err)
	}
	rec := NewRectifierConv(rng, RectifierDesign(man.Design), spec.Conv,
		dims, spec.RectifierHidden, man.Classes, private)
	recParams, err := encl.Unseal(sealedRec)
	if err != nil {
		return nil, fmt.Errorf("core: unsealing rectifier: %w", err)
	}
	if err := rec.UnmarshalParams(recParams); err != nil {
		return nil, fmt.Errorf("core: rectifier parameters: %w", err)
	}
	return admit(encl, bb, rec, private, sealedRec, sealedGraph, rec.Adjacency().NumBytes())
}
