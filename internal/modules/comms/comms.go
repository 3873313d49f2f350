// Package comms implements the communication module: message construction
// from memory deltas, novelty accounting, and the message-gating
// optimizations of Recs. 8 and 10. Delivery is the multi-agent runner's.
//
// The paper's headline findings about communication — that it dominates
// latency in some workloads yet barely moves success rates, and that only
// ~20% of CoELA's pre-generated messages carry useful content — fall out of
// the novelty accounting here.
package comms

import (
	"embench/internal/modules/memory"
)

// Broadcast addresses a message to every other agent.
const Broadcast = -1

// Message is one inter-agent communication.
type Message struct {
	From    int
	To      int // Broadcast or a specific agent id
	Step    int
	Records []memory.Record // facts/intents shared
	Tokens  int             // rendered size
}

// Novel reports whether the message would teach the receiver anything: it
// carries at least one record whose key the receiver's memory lacks, or
// whose content differs from what the receiver already knows. A repeated
// sighting of an unchanged fact is not novel — this is what makes most of
// CoELA's pre-generated traffic useless (paper Sec. V-D).
func Novel(m Message, receiver *memory.Store) bool {
	for _, r := range m.Records {
		if r.Key == "" || r.Routine {
			continue
		}
		prev, ok := receiver.Latest(r.Key)
		if !ok {
			return true
		}
		if prev.Step <= r.Step && !memory.SamePayload(prev.Payload, r.Payload) {
			return true
		}
	}
	return false
}

// Filter implements Rec. 10 message filtering: it keeps only records that
// are plausibly novel to the recipient from the sender's point of view
// (sent less recently than lastShared) and caps the message at maxRecords,
// prioritizing the newest facts.
func Filter(records []memory.Record, lastShared int, maxRecords int) []memory.Record {
	var out []memory.Record
	for _, r := range records {
		if r.Step > lastShared {
			out = append(out, r)
		}
	}
	if maxRecords > 0 && len(out) > maxRecords {
		out = out[len(out)-maxRecords:]
	}
	return out
}

// MessageTokens estimates the rendered size of a record set: a fixed
// framing cost plus each record's own token count.
func MessageTokens(records []memory.Record) int {
	tokens := 12 // greeting / framing
	for _, r := range records {
		tokens += r.Tokens
	}
	return tokens
}
