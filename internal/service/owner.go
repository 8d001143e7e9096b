package service

import (
	"context"
	"fmt"
	"log/slog"
	"math/big"
	"net"
	"time"

	"mkse/internal/core"
	"mkse/internal/protocol"
	"mkse/internal/trace"
)

// OwnerService exposes a core.Owner over TCP: Enroll, Trapdoor and
// BlindDecrypt endpoints. Trapdoor and BlindDecrypt requests must carry a
// valid signature from an enrolled user (Theorem 4); Enroll is the
// bootstrap step that registers the user's verification key.
type OwnerService struct {
	Owner *core.Owner
	// IdleTimeout, when non-zero, bounds how long a connection may sit
	// between requests before it is dropped.
	IdleTimeout time.Duration
	// Tracer, when set, samples requests into single-span traces (the owner
	// daemon has no downstream calls to fan a trace into): an incoming
	// sampled context is continued so a traced client's enrollment or
	// blind-decrypt round trip shows up in the assembled tree, other
	// requests are head-sampled 1 in N.
	Tracer *trace.Tracer
	// Logger, when set, receives the same per-request lines as the cloud
	// daemon's (DEBUG "request served", WARN "request failed") plus
	// free-form notices.
	Logger *slog.Logger
	// Persist, when set, is called after each enrollment and before its
	// reply is sent, so an acknowledged enrollment survives the owner's
	// death. If it fails the enrollment is refused; the user stays
	// registered in memory and is written by the next save that succeeds.
	Persist func() error
}

// Serve accepts connections on l until it is closed. Every request flows
// through the request seam (requestSeam.serve) with this service's verb
// table, Tracer and Logger, read once here: set them before Serve.
func (s *OwnerService) Serve(l net.Listener) error {
	rs := &requestSeam{role: "owner", verbs: s.verbs(), tracer: s.Tracer, logger: s.Logger}
	return serveLoop(l, s.Logger, s.IdleTimeout, nil, rs.serve)
}

// verbs is the owner daemon's verb table (see verb). Its handlers record
// no child spans and never take a connection over.
func (s *OwnerService) verbs() []verb {
	return []verb{
		{name: "enroll", has: func(m *protocol.Message) bool { return m.EnrollReq != nil },
			serve: func(_ context.Context, c call) *protocol.Message { return s.handleEnroll(c.EnrollReq) }},
		{name: "trapdoor", has: func(m *protocol.Message) bool { return m.TrapdoorReq != nil },
			serve: func(_ context.Context, c call) *protocol.Message { return s.handleTrapdoor(c.TrapdoorReq) }},
		{name: "blinddecrypt", has: func(m *protocol.Message) bool { return m.BlindDecryptReq != nil },
			serve: func(_ context.Context, c call) *protocol.Message { return s.handleBlindDecrypt(c.BlindDecryptReq) }},
		unsupported("owner"),
	}
}

func (s *OwnerService) handleEnroll(req *protocol.EnrollRequest) *protocol.Message {
	pub, err := req.UserPub.ToPublicKey()
	if err != nil {
		return errMsg(fmt.Errorf("owner: enroll: %w", err))
	}
	if err := s.Owner.RegisterUser(req.UserID, pub); err != nil {
		return errMsg(err)
	}
	if s.Persist != nil {
		if err := s.Persist(); err != nil {
			return errMsg(fmt.Errorf("owner: enroll: saving state: %w", err))
		}
	}
	rts := s.Owner.RandomTrapdoors()
	wire := make([][]byte, len(rts))
	for i, v := range rts {
		wire[i] = marshalVector(v)
	}
	logf(s.Logger, "owner: enrolled user %q", req.UserID)
	return &protocol.Message{EnrollResp: &protocol.EnrollResponse{
		Params:          protocol.FromParams(s.Owner.Params()),
		OwnerPub:        protocol.FromPublicKey(s.Owner.PublicKey()),
		RandomTrapdoors: wire,
	}}
}

func (s *OwnerService) handleTrapdoor(req *protocol.TrapdoorRequest) *protocol.Message {
	signable := protocol.SignableTrapdoor(req.UserID, req.BinIDs)
	if err := s.Owner.VerifyUser(req.UserID, signable, req.Sig); err != nil {
		return errMsg(fmt.Errorf("owner: trapdoor request rejected: %w", err))
	}
	keys, err := s.Owner.TrapdoorKeys(req.BinIDs)
	if err != nil {
		return errMsg(err)
	}
	logf(s.Logger, "owner: served %d bin keys to %q", len(keys), req.UserID)
	return &protocol.Message{TrapdoorResp: &protocol.TrapdoorResponse{BinIDs: req.BinIDs, Keys: keys}}
}

func (s *OwnerService) handleBlindDecrypt(req *protocol.BlindDecryptRequest) *protocol.Message {
	signable := protocol.SignableBlindDecrypt(req.UserID, req.Z)
	if err := s.Owner.VerifyUser(req.UserID, signable, req.Sig); err != nil {
		return errMsg(fmt.Errorf("owner: blind-decrypt request rejected: %w", err))
	}
	zbar, err := s.Owner.BlindDecrypt(new(big.Int).SetBytes(req.Z))
	if err != nil {
		return errMsg(err)
	}
	return &protocol.Message{BlindDecryptResp: &protocol.BlindDecryptResponse{
		ZBar: zbar.Bytes(),
	}}
}
