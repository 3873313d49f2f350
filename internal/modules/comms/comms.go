// Package comms implements the communication module: message construction
// from memory deltas, a delivery bus, novelty accounting, and the
// message-gating optimizations of Recs. 8 and 10.
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

// Bus queues messages for delivery. Delivery is synchronous within a step:
// messages sent during step t are readable by receivers later in step t.
type Bus struct {
	agents    int
	mailboxes [][]Message
	sent      int
}

// NewBus returns a bus for n agents.
func NewBus(n int) *Bus {
	return &Bus{agents: n, mailboxes: make([][]Message, n)}
}

// Agents reports the number of endpoints.
func (b *Bus) Agents() int { return b.agents }

// Sent reports the total messages accepted so far.
func (b *Bus) Sent() int { return b.sent }

// Send enqueues a message for its recipients. Broadcast fans out to every
// agent except the sender. Unknown recipients are dropped.
func (b *Bus) Send(m Message) {
	b.sent++
	if m.To == Broadcast {
		for i := range b.mailboxes {
			if i != m.From {
				b.mailboxes[i] = append(b.mailboxes[i], m)
			}
		}
		return
	}
	if m.To >= 0 && m.To < b.agents {
		b.mailboxes[m.To] = append(b.mailboxes[m.To], m)
	}
}

// Drain returns and clears agent's mailbox.
func (b *Bus) Drain(agent int) []Message {
	if agent < 0 || agent >= b.agents {
		return nil
	}
	out := b.mailboxes[agent]
	b.mailboxes[agent] = nil
	return out
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
