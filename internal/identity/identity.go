// Package identity provides the cryptographic peer identities of §4.2:
// ed25519 key pairs, stable peer IDs derived from public keys, and
// detached signatures over canonical byte encodings. Signed evaluation
// records (EvaluationInfo) prevent peers from forging or distorting other
// peers' evaluations in the DHT (attack 1 in §4.2).
package identity

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// PeerID is a stable identifier derived from a peer's public key
// (hex-encoded truncated SHA-256). Deriving the ID from the key binds
// identity to key possession: presenting records under someone else's ID
// requires forging their signature.
type PeerID string

// IDLen is the number of digest bytes kept in a PeerID (hex doubles it).
const IDLen = 16

// Identity is a peer's key pair plus derived ID.
type Identity struct {
	id   PeerID
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// Generate creates a new identity reading randomness from rand; pass nil
// to use crypto/rand. Simulation code passes a deterministic reader so
// experiment runs are reproducible.
func Generate(rand io.Reader) (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("identity: generate key: %w", err)
	}
	return &Identity{id: IDFromPublicKey(pub), pub: pub, priv: priv}, nil
}

// IDFromPublicKey derives the PeerID for a public key.
func IDFromPublicKey(pub ed25519.PublicKey) PeerID {
	sum := sha256.Sum256(pub)
	return PeerID(hex.EncodeToString(sum[:IDLen]))
}

// ID returns the peer's identifier.
func (id *Identity) ID() PeerID { return id.id }

// PublicKey returns the peer's public key.
func (id *Identity) PublicKey() ed25519.PublicKey { return id.pub }

// Sign returns a detached signature over msg.
func (id *Identity) Sign(msg []byte) []byte {
	return ed25519.Sign(id.priv, msg)
}

// Errors returned by the verification helpers.
var (
	ErrBadSignature = errors.New("identity: signature verification failed")
	ErrIDMismatch   = errors.New("identity: peer ID does not match public key")
)

// Verify checks sig over msg against pub and checks that claimed is the ID
// derived from pub. Both checks are required: a valid signature under the
// wrong key would let an attacker re-home records onto a victim's ID.
func Verify(claimed PeerID, pub ed25519.PublicKey, msg, sig []byte) error {
	if IDFromPublicKey(pub) != claimed {
		return ErrIDMismatch
	}
	if !ed25519.Verify(pub, msg, sig) {
		return ErrBadSignature
	}
	return nil
}

// Directory maps peer IDs to public keys. In a deployed system this is a
// PKI or a self-certifying namespace; in the reproduction it is populated
// when peers join.
//
// A Directory has no lock: fill it with Register during setup and treat
// it as read-only afterwards. Lookups and verifications may then run on
// many goroutines at once (eval.VerifyAll does), but a Register
// concurrent with any of them is a data race.
type Directory struct {
	keys map[PeerID]ed25519.PublicKey
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{keys: make(map[PeerID]ed25519.PublicKey)}
}

// Register stores a peer's public key. Registering a key that conflicts
// with an existing binding is rejected — an identity cannot be replaced.
func (d *Directory) Register(pub ed25519.PublicKey) (PeerID, error) {
	id := IDFromPublicKey(pub)
	if existing, ok := d.keys[id]; ok {
		if !existing.Equal(pub) {
			return "", fmt.Errorf("identity: ID collision for %s", id)
		}
		return id, nil
	}
	key := make(ed25519.PublicKey, len(pub))
	copy(key, pub)
	d.keys[id] = key
	return id, nil
}

// Lookup returns the public key bound to id.
func (d *Directory) Lookup(id PeerID) (ed25519.PublicKey, bool) {
	pub, ok := d.keys[id]
	return pub, ok
}

// Len returns the number of registered identities.
func (d *Directory) Len() int { return len(d.keys) }

// VerifyWith resolves the claimed signer in the directory and verifies the
// signature.
func (d *Directory) VerifyWith(claimed PeerID, msg, sig []byte) error {
	pub, ok := d.Lookup(claimed)
	if !ok {
		return fmt.Errorf("identity: unknown peer %s", claimed)
	}
	return Verify(claimed, pub, msg, sig)
}

// DeterministicReader is an io.Reader over a seeded keystream, used to
// generate reproducible identities in simulations. It is NOT
// cryptographically secure and must never be used outside tests and
// simulation.
type DeterministicReader struct {
	state uint64
}

// NewDeterministicReader returns a reader seeded with seed.
func NewDeterministicReader(seed uint64) *DeterministicReader {
	return &DeterministicReader{state: seed + 0x9e3779b97f4a7c15}
}

// Read fills p with pseudo-random bytes; it never fails.
func (r *DeterministicReader) Read(p []byte) (int, error) {
	for i := range p {
		r.state += 0x9e3779b97f4a7c15
		z := r.state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		p[i] = byte(z ^ (z >> 31))
	}
	return len(p), nil
}

var _ io.Reader = (*DeterministicReader)(nil)
