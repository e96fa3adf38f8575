"""The coevolutionary engine: configuration, streams, pairing, variation, fitness and the loop."""
