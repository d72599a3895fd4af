#!/usr/bin/env python3
"""Demonstrate the witness family: thickened paths are highly
edge-connected yet contain no strong triangle immersion, and the chorded
variants contain no strong K4 immersion."""

import os
import sys

from immtools import (
    find_immersion,
    gen_complete,
    gen_pk,
    gen_pk_chorded,
    is_k_edge_connected_set,
)


def main() -> None:
    K3 = gen_complete(3)
    K4 = gen_complete(4)
    for k in range(2, 9):
        G = gen_pk(k)
        connected = is_k_edge_connected_set(G, G.vertices, k) is True
        status = find_immersion(G, K3, strong=True).status
        print(
            f"pk({k}): {len(G.vertices)} vertices, {len(G.edges)} edges; "
            f"{k}-edge-connected: {connected}; strong K3: {status}"
        )
    for k in range(3, 8):
        G = gen_pk_chorded(k)
        status = find_immersion(G, K4, strong=True).status
        print(
            f"pk-chorded({k}): {len(G.vertices)} vertices, {len(G.edges)} "
            f"edges; strong K4: {status}"
        )


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()  # a closed pipe is found here, not at exit
    except BrokenPipeError:  # as the immtools CLI: exit 141, nothing on stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
