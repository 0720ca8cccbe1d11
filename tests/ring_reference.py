"""Pure-Python hop-by-hop reference for the ring collectives.

Each generator yields every hop of one collective as (sender, receiver,
words, step), ranks being positions in the fiber, and tracks which data each
member holds, so it also checks that a member only forwards what it has and
that the collective ends where it should.  tally sums the words each member
sends and receives.
"""


def all_gather_hops(lens):
    """A ring all-gather of chunks of these lengths: at step s member i
    forwards to member i + 1 the chunk that originated at member i - s + 1,
    which it received at the step before; after p - 1 steps every member
    holds every chunk."""
    p = len(lens)
    held = [{i} for i in range(p)]
    for step in range(1, p):
        arrivals = []
        for i in range(p):
            chunk = (i - step + 1) % p
            assert chunk in held[i], (i, chunk, step)
            arrivals.append(((i + 1) % p, chunk))
            yield i, (i + 1) % p, lens[chunk], step
        for receiver, chunk in arrivals:
            held[receiver].add(chunk)
    assert all(h == set(range(p)) for h in held)


def reduce_scatter_hops(sizes):
    """A ring reduce-scatter of shards of these sizes: shard j starts at
    member j + 1 and travels the ring, each receiver adding its addend, until
    it rests at member j with all p addends summed."""
    p = len(sizes)
    for j, words in enumerate(sizes):
        holder = (j + 1) % p
        summed = {holder}
        for step in range(1, p):
            receiver = (holder + 1) % p
            assert receiver not in summed, (j, receiver, step)
            summed.add(receiver)
            yield holder, receiver, words, step
            holder = receiver
        assert holder == j and summed == set(range(p))


def tally(hops, p):
    """(sent, received): the words each of the p members sends and receives."""
    sent, received = [0] * p, [0] * p
    for sender, receiver, words, _ in hops:
        sent[sender] += words
        received[receiver] += words
    return sent, received
