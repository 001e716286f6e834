package server

// Hooks for the external (server_test) tests: the two places where what
// a test must see is not on the public surface.

// ConfigPointer is the published configuration snapshot itself, so a test
// can tell "the same value" from "an equal value published again".
func (s *Server) ConfigPointer() *Config { return s.cfg.Load() }

// ApplyReplicaRecord replays one WAL record body into shard i the way a
// replica's tailing loop does (replicator.applyRecord).
func (s *Server) ApplyReplicaRecord(i int, body []byte) error {
	return (&replicator{s: s}).applyRecord(i, body)
}
