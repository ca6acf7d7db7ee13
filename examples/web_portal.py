#!/usr/bin/env python3
"""The web-portal prototype (paper Fig. 1, deployment configuration 2).

"The other deployment configuration is through a web portal so that the
user does not need to log on to the subnet."

This example starts the portal over a 3-node cluster, submits the
guiding example's XMI over real HTTP, lists submissions, and downloads
the generated artifacts -- the complete accepts-XMI / translates /
executes / results-available-for-download loop the paper describes.

Run:  python examples/web_portal.py
"""

import json
import urllib.request

from repro.apps.floyd import floyd_registry, random_weighted_graph, store_matrix
from repro.apps.floyd.model import build_fig3_model
from repro.cn import Cluster
from repro.cn.portal import Portal, PortalHTTPServer
from repro.core.xmi import write_graph


def main() -> None:
    portal = Portal(Cluster(3, registry=floyd_registry()))
    server = PortalHTTPServer(portal).start()
    host, port = server.address
    base = f"http://{host}:{port}"
    print(f"portal listening on {base}")

    try:
        # a user prepares a model in their UML tool and exports XMI...
        matrix = random_weighted_graph(12, seed=31)
        source = store_matrix("portal-example", matrix)
        xmi = write_graph(
            build_fig3_model(n_workers=3, matrix_source=source, sink="")
        )

        # ...and POSTs it to the portal
        request = urllib.request.Request(
            f"{base}/submit", data=xmi.encode(), method="POST"
        )
        response = json.load(urllib.request.urlopen(request))
        print(f"submission {response['id']}: {response['status']}")

        listing = json.load(urllib.request.urlopen(f"{base}/submissions"))
        print(f"submissions on the portal: {listing}")

        # artifacts are available for download, each built when fetched
        artifacts = ("cnx", "client.py", "client.java", "timeline", "telemetry.jsonl")
        for artifact in artifacts:
            data = urllib.request.urlopen(
                f"{base}/submission/{response['id']}/{artifact}"
            ).read()
            first_line = data.decode().splitlines()[0]
            print(f"  {artifact:<15} {len(data):>6} bytes   {first_line[:60]}")

        # and the computed result came back in the submission response
        result = response["results"][0]["tctask999"]
        print(f"result matrix: {len(result)}x{len(result[0])} shortest-path distances")
    finally:
        server.stop()
        portal.close()


if __name__ == "__main__":
    main()
