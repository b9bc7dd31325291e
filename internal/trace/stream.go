package trace

import (
	"fmt"
	"strconv"
	"strings"
)

// Stream naming. A multi-context (SMT) simulation runs one instruction
// stream per hardware context; when several contexts run the same
// workload they must not be lockstep clones, so context k runs the
// workload's salt-k stream — the same kernel-mix recipe, independently
// seeded. A stream is addressed by "<workload>" (salt 0, the canonical
// single-context stream) or "<workload>#<salt>". Stream names flow
// through the whole artifact machinery: ArtifactKey hashes them, the
// artifact store generates them on demand, and coordinators ship them
// to workers like any other recorded trace.

// StreamName returns the stream name of workload name for hardware
// context ctx: the bare workload name for context 0, "name#ctx" beyond.
func StreamName(name string, ctx int) string {
	if ctx <= 0 {
		return name
	}
	return fmt.Sprintf("%s#%d", name, ctx)
}

// SplitStreamName parses a stream name into its workload name and salt.
// Names without a "#<salt>" suffix are salt 0. A suffix only counts as
// a salt when it leaves a non-empty workload part and is the canonical
// decimal form StreamName produces; anything else — "#3", "name#",
// "name#-1", "name#x", "name#+3", "name#03" — is treated as a literal
// (and thus unknown) workload name rather than round-tripping into a
// salted stream of a different name. Canonical-only parsing matters for
// content addressing: a non-canonical spelling of the same salt must
// not mint a second artifact address for one stream.
func SplitStreamName(stream string) (name string, salt int) {
	i := strings.LastIndexByte(stream, '#')
	if i <= 0 {
		return stream, 0
	}
	suffix := stream[i+1:]
	n, err := strconv.Atoi(suffix)
	if err != nil || n < 0 || strconv.Itoa(n) != suffix {
		return stream, 0
	}
	return stream[:i], n
}

// BuildStream constructs a generator for a stream name, resolving the
// "<workload>#<salt>" form to the named workload's independently-seeded
// salt stream. Reports false when the workload is unknown.
//
// External (uploaded) traces are a single recorded stream: there is no
// recipe to re-seed, so every salt of an external name replays the same
// recording. SMT mixes over an external trace therefore run lockstep
// copies — see DESIGN.md §15 for the caveat.
func BuildStream(stream string, n uint64) (Generator, bool) {
	name, salt := SplitStreamName(stream)
	w, ok := ByName(name)
	if !ok {
		return nil, false
	}
	if salt == 0 || w.Profile == ProfileExternal {
		return w.Build(n), true
	}
	return buildProfile(w.Name, w.Profile, salt, n), true
}

// Regenerable reports whether a stream can be rebuilt from its name
// alone: true for every synthetic stream, salted or not, and false for
// uploaded "ext:" traces, whose recording exists nowhere but in the
// processes that received it. Generating a synthetic stream is cheaper
// than decoding its artifact (DESIGN.md §13.1), so the artifact store
// keeps regenerable streams in memory only and coordinators pre-ship
// only the streams this reports false for.
func Regenerable(stream string) bool {
	name, _ := SplitStreamName(stream)
	return !IsExternalName(name)
}
