// Package bundle defines the on-disk deployment artifact a model vendor
// ships to an edge device: the public backbone (parameters + substitute
// graph, stored in the clear — they are public by construction) together
// with the sealed rectifier parameters and sealed private COO adjacency,
// bound to an expected enclave measurement.
//
// The format is a single self-describing binary file:
//
//	magic   uint32 "GNVB"
//	version uint16
//	measurement [32]byte       — enclave identity the sealed sections bind to
//	meta    length-prefixed JSON (Manifest)
//	section count uint16, then per section:
//	  name  length-prefixed string
//	  body  length-prefixed bytes
//	sha256  [32]byte            — integrity hash over everything above
//
// The integrity hash detects accidental corruption; *confidentiality and
// tamper-evidence of the private sections come from AES-GCM sealing*, not
// from this hash (an attacker can rewrite public sections, which is
// equivalent to them just running their own backbone).
package bundle

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

const (
	magic   = uint32(0x474E5642) // "GNVB"
	version = uint16(1)
)

// Section names used by GNNVault deployments.
const (
	SectionBackboneParams  = "backbone/params"
	SectionSubstituteCOO   = "backbone/substitute-coo"
	SectionSealedRectifier = "enclave/sealed-rectifier"
	SectionSealedGraph     = "enclave/sealed-coo"
)

// Manifest describes the deployment for tooling and attestation checks.
type Manifest struct {
	Dataset    string `json:"dataset"`
	ModelSpec  string `json:"model_spec"`
	Design     string `json:"design"`
	Conv       string `json:"conv"`
	Classes    int    `json:"classes"`
	FeatureDim int    `json:"feature_dim"`
	Nodes      int    `json:"nodes"`
	// ThetaBackbone / ThetaRectifier are parameter counts, recorded for
	// audit (Table II's θ columns).
	ThetaBackbone  int `json:"theta_backbone"`
	ThetaRectifier int `json:"theta_rectifier"`
}

// Bundle is a parsed deployment artifact.
type Bundle struct {
	Measurement [32]byte
	Manifest    Manifest
	sections    map[string][]byte
	order       []string
}

// New creates an empty bundle bound to an enclave measurement.
func New(measurement [32]byte, m Manifest) *Bundle {
	return &Bundle{Measurement: measurement, Manifest: m, sections: map[string][]byte{}}
}

// Add stores a named section (copying the body). Re-adding a name replaces
// its body but keeps its position.
func (b *Bundle) Add(name string, body []byte) {
	if _, ok := b.sections[name]; !ok {
		b.order = append(b.order, name)
	}
	b.sections[name] = append([]byte(nil), body...)
}

// Section returns a section body (nil, false if absent).
func (b *Bundle) Section(name string) ([]byte, bool) {
	s, ok := b.sections[name]
	return s, ok
}

// Marshal serialises the bundle.
func (b *Bundle) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) } //nolint:errcheck
	w(magic)
	w(version)
	buf.Write(b.Measurement[:])
	meta, err := json.Marshal(b.Manifest)
	if err != nil {
		return nil, fmt.Errorf("bundle: manifest: %w", err)
	}
	w(uint32(len(meta)))
	buf.Write(meta)
	w(uint16(len(b.order)))
	for _, name := range b.order {
		w(uint32(len(name)))
		buf.WriteString(name)
		body := b.sections[name]
		w(uint32(len(body)))
		buf.Write(body)
	}
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes(), nil
}

// Unmarshal parses and integrity-checks a bundle.
func Unmarshal(data []byte) (*Bundle, error) {
	if len(data) < 4+2+32+4+2+32 {
		return nil, fmt.Errorf("bundle: truncated (%d bytes)", len(data))
	}
	body, sumGot := data[:len(data)-32], data[len(data)-32:]
	sumWant := sha256.Sum256(body)
	if !bytes.Equal(sumGot, sumWant[:]) {
		return nil, fmt.Errorf("bundle: integrity hash mismatch")
	}
	r := bytes.NewReader(body)
	var m uint32
	var v uint16
	if err := binary.Read(r, binary.LittleEndian, &m); err != nil || m != magic {
		return nil, fmt.Errorf("bundle: bad magic")
	}
	if err := binary.Read(r, binary.LittleEndian, &v); err != nil || v != version {
		return nil, fmt.Errorf("bundle: unsupported version %d", v)
	}
	b := &Bundle{sections: map[string][]byte{}}
	if _, err := r.Read(b.Measurement[:]); err != nil {
		return nil, fmt.Errorf("bundle: measurement: %w", err)
	}
	var metaLen uint32
	if err := binary.Read(r, binary.LittleEndian, &metaLen); err != nil {
		return nil, fmt.Errorf("bundle: meta length: %w", err)
	}
	if int(metaLen) > r.Len() {
		return nil, fmt.Errorf("bundle: meta length %d exceeds payload", metaLen)
	}
	meta := make([]byte, metaLen)
	if _, err := r.Read(meta); err != nil {
		return nil, fmt.Errorf("bundle: meta: %w", err)
	}
	if err := json.Unmarshal(meta, &b.Manifest); err != nil {
		return nil, fmt.Errorf("bundle: manifest json: %w", err)
	}
	var count uint16
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("bundle: section count: %w", err)
	}
	for i := 0; i < int(count); i++ {
		name, err := readBlob(r, "section name")
		if err != nil {
			return nil, err
		}
		blob, err := readBlob(r, string(name))
		if err != nil {
			return nil, err
		}
		b.Add(string(name), blob)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("bundle: %d trailing bytes", r.Len())
	}
	return b, nil
}

func readBlob(r *bytes.Reader, what string) ([]byte, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("bundle: %s length: %w", what, err)
	}
	if int(n) > r.Len() {
		return nil, fmt.Errorf("bundle: %s length %d exceeds payload", what, n)
	}
	blob := make([]byte, n)
	if n == 0 {
		return blob, nil
	}
	if _, err := io.ReadFull(r, blob); err != nil {
		return nil, fmt.Errorf("bundle: %s body: %w", what, err)
	}
	return blob, nil
}
