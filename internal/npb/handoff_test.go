package npb_test

import (
	"testing"

	"repro/internal/mpisim"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/npb"
	"repro/internal/sim"
)

// maxHandoffsPerMessage bounds the coroutine switches per network message
// of an NPB run. A rank's body parks only when its operation ring is full
// or must drain, so its proc switches about once per ring of operations;
// parking once per blocking call instead costs about two switches per
// message.
const maxHandoffsPerMessage = 0.5

func TestHandoffsPerMessage(t *testing.T) {
	for _, code := range npb.Codes() {
		n := npb.PaperRanks(code)
		w, err := npb.New(code, npb.ClassS, n)
		if err != nil {
			t.Fatal(err)
		}
		k := sim.NewKernel()
		nodes := make([]*node.Node, n)
		for i := range nodes {
			nodes[i] = node.MustNew(k, i, node.DefaultConfig())
		}
		net := netsim.MustNew(k, n, netsim.DefaultConfig())
		world, err := mpisim.NewWorld(k, net, nodes, mpisim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Launch(world); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(sim.MaxTime); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		msgs := net.Stats().Messages
		if msgs == 0 {
			continue // SWIM: one node, no messages
		}
		st := k.Stats()
		if per := float64(st.Handoffs) / float64(msgs); per >= maxHandoffsPerMessage {
			t.Errorf("%s: %d handoffs for %d messages (%.2f per message), want below %v",
				w.Name(), st.Handoffs, msgs, per, maxHandoffsPerMessage)
		}
	}
}
