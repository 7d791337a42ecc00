"""The scalar reference of a staging region's last-writer map, which
``repro.execution.metrics.last_writers`` computes in one C call."""


def last_writers(spans):
    """``spans[i] = (start word, width, source)`` of the i-th write.

    A later write wins: walking the writes backward, each word goes to
    the first one covering it.  Returns ``(item, word, source + word -
    start)`` per word, in descending item, ascending word order.
    """
    covered, wins = set(), []
    for item in reversed(range(len(spans))):
        start, width, source = spans[item]
        for word in range(start, start + width):
            if word not in covered:
                covered.add(word)
                wins.append((item, word, source + word - start))
    return wins
