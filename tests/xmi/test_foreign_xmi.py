"""Tolerance for foreign XMI flavors (Poseidon/ArgoUML-era exporters).

The paper's toolchain consumed XMI from commercial modeling tools; real
exporters differ in details our reader must absorb: dataValue as a child
element instead of an attribute, CallState instead of ActionState,
vendor extension elements, diagram-geometry noise, and attributes we do
not model.
"""

import pytest

from repro.core.transform.xmi2cnx import xmi_to_cnx_native
from repro.core.xmi import read_graphs

FOREIGN = """<XMI xmi.version="1.2">
  <XMI.header>
    <XMI.documentation>
      <XMI.exporter>SomeCommercialTool</XMI.exporter>
      <XMI.exporterVersion>2.1</XMI.exporterVersion>
    </XMI.documentation>
  </XMI.header>
  <XMI.content>
    <UML:Model xmi.id="m1" name="Exported" isSpecification="false"
               isRoot="false" isLeaf="false" isAbstract="false">
      <UML:Namespace.ownedElement>
        <UML:Package xmi.id="p1" name="jobs" isSpecification="false">
          <UML:Namespace.ownedElement>
            <UML:TagDefinition xmi.id="td1" name="jar"/>
            <UML:TagDefinition xmi.id="td2" name="class"/>
            <UML:TagDefinition xmi.id="td3" name="memory"/>
            <UML:TagDefinition xmi.id="td4" name="runmodel"/>
            <UML:ActivityGraph xmi.id="g1" name="Foreign"
                               isSpecification="false">
              <UML:StateMachine.top>
                <UML:CompositeState xmi.id="cs1" name="top">
                  <UML:CompositeState.subvertex>
                    <UML:Pseudostate xmi.id="v0" kind="initial" name=""/>
                    <UML:CallState xmi.id="v1" name="worker"
                                   isSpecification="false" isDynamic="false">
                      <UML:ModelElement.taggedValue>
                        <UML:TaggedValue xmi.id="tv1" isSpecification="false">
                          <UML:TaggedValue.dataValue>work.jar</UML:TaggedValue.dataValue>
                          <UML:TaggedValue.type>
                            <UML:TagDefinition xmi.idref="td1"/>
                          </UML:TaggedValue.type>
                        </UML:TaggedValue>
                        <UML:TaggedValue xmi.id="tv2" dataValue="com.example.Worker">
                          <UML:TaggedValue.type>
                            <UML:TagDefinition xmi.idref="td2"/>
                          </UML:TaggedValue.type>
                        </UML:TaggedValue>
                        <UML:TaggedValue xmi.id="tv3" dataValue="500">
                          <UML:TaggedValue.type>
                            <UML:TagDefinition xmi.idref="td3"/>
                          </UML:TaggedValue.type>
                        </UML:TaggedValue>
                        <UML:TaggedValue xmi.id="tv4" dataValue="RUN_AS_THREAD_IN_TM">
                          <UML:TaggedValue.type>
                            <UML:TagDefinition xmi.idref="td4"/>
                          </UML:TaggedValue.type>
                        </UML:TaggedValue>
                      </UML:ModelElement.taggedValue>
                    </UML:CallState>
                    <UML:FinalState xmi.id="v2" name="end"/>
                  </UML:CompositeState.subvertex>
                </UML:CompositeState>
              </UML:StateMachine.top>
              <UML:StateMachine.transitions>
                <UML:Transition xmi.id="t1" isSpecification="false">
                  <UML:Transition.source><UML:Pseudostate xmi.idref="v0"/></UML:Transition.source>
                  <UML:Transition.target><UML:CallState xmi.idref="v1"/></UML:Transition.target>
                </UML:Transition>
                <UML:Transition xmi.id="t2" isSpecification="false">
                  <UML:Transition.source><UML:CallState xmi.idref="v1"/></UML:Transition.source>
                  <UML:Transition.target><UML:FinalState xmi.idref="v2"/></UML:Transition.target>
                </UML:Transition>
              </UML:StateMachine.transitions>
            </UML:ActivityGraph>
          </UML:Namespace.ownedElement>
        </UML:Package>
      </UML:Namespace.ownedElement>
    </UML:Model>
  </XMI.content>
  <XMI.extensions xmi.extender="SomeCommercialTool">
    <diagramGeometry>ignored vendor noise</diagramGeometry>
  </XMI.extensions>
</XMI>"""


class TestForeignFlavor:
    def test_reads_callstate_as_action(self):
        graph = read_graphs(FOREIGN)[0]
        worker = graph.find("worker")
        assert worker.kind == "action"

    def test_reads_child_element_datavalue(self):
        graph = read_graphs(FOREIGN)[0]
        assert graph.find("worker").get_tag("jar") == "work.jar"
        assert graph.find("worker").get_tag("class") == "com.example.Worker"

    def test_transitions_resolved(self):
        graph = read_graphs(FOREIGN)[0]
        assert graph.action_dependencies() == {"worker": []}
        assert len(graph.transitions) == 2

    def test_extensions_ignored(self):
        # vendor extension elements must not break anything
        assert read_graphs(FOREIGN)[0].name == "Foreign"

    def test_full_native_transform(self):
        doc = xmi_to_cnx_native(FOREIGN)
        task = doc.client.jobs[0].find("worker")
        assert task.jar == "work.jar"
        assert task.cls == "com.example.Worker"
        assert task.task_req.memory == 500

    def test_xslt_transform_rejects_callstate_flavor(self):
        from repro.core.cnx.parser import CnxParseError
        from repro.core.transform.xmi2cnx import xmi_to_cnx

        # The stylesheet intentionally targets the Fig. 7 vocabulary
        # (UML:ActionState); a CallState-flavored export yields an empty
        # job which the CNX parser rejects loudly rather than running a
        # silently-empty client.  The native path is the tolerant one.
        with pytest.raises(CnxParseError, match="no <task>"):
            xmi_to_cnx(FOREIGN)
