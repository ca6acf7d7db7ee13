<?xml version="1.0"?>
<!--
  XMI2CNX: transform a UML 1.x activity-graph XMI export into a CNX
  client descriptor (the paper's section 5, step 3).

  Mapping:
    UML:ActivityGraph                -> <job>
    UML:ActionState                  -> <task>
    tagged values (jar/class/memory/runmodel/ptypeN/pvalueN)
                                     -> task attributes, <task-req>, <param>
    tagged values sends/receives (declared message flows)
                                     -> sends="..." receives="...", when tagged
    transitions (through pseudostates) -> depends="..."
    isDynamic / dynamicMultiplicity / UML:ArgListsExpression
                                     -> dynamic="true" multiplicity/arguments

  The depends computation walks incoming transitions recursively,
  treating initial/fork/join pseudostates as transparent, so the nearest
  preceding ActionStates become the dependency list - exactly the
  relation Fig. 2 encodes.

  Stylesheet parameters:
    log   - value for client/@log   (default CN_Client.log)
    port  - value for client/@port  (default 5666)
-->
<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:output method="xml" indent="yes"/>
  <xsl:strip-space elements="*"/>

  <xsl:param name="log" select="'CN_Client.log'"/>
  <xsl:param name="port" select="'5666'"/>

  <!-- hash joins for the id/idref references (linear-time transform) -->
  <xsl:key name="tagdef-by-id" match="UML:TagDefinition" use="@xmi.id"/>
  <xsl:key name="vertex-by-id" match="*" use="@xmi.id"/>
  <xsl:key name="transition-by-target"
           match="UML:Transition"
           use="UML:Transition.target/*/@xmi.idref"/>
  <xsl:key name="dependency-by-client"
           match="UML:Dependency"
           use="UML:Dependency.client/*/@xmi.idref"/>
  <!-- every tagged value under "<its owner>|<its tag's name>": the
       model's tags are resolved in one pass, then looked up -->
  <xsl:key name="tag-by-owner"
           match="UML:TaggedValue"
           use="concat(generate-id(../..), '|',
                key('tagdef-by-id',
                    UML:TaggedValue.type/UML:TagDefinition/@xmi.idref)/@name)"/>

  <xsl:template match="/">
    <cn2>
      <client log="{$log}" port="{$port}">
        <xsl:attribute name="class">
          <xsl:value-of select="(//UML:ActivityGraph[not(@xmi.idref)])[1]/@name"/>
        </xsl:attribute>
        <xsl:apply-templates select="//UML:ActivityGraph[not(@xmi.idref)]"/>
      </client>
    </cn2>
  </xsl:template>

  <xsl:template match="UML:ActivityGraph">
    <xsl:variable name="gid" select="@xmi.id"/>
    <job>
      <!-- client-level partial order (paper section 4): graphs referenced
           by a UML:Dependency carry name/after attributes -->
      <xsl:if test="//UML:Dependency[UML:Dependency.client/*/@xmi.idref = $gid
                    or UML:Dependency.supplier/*/@xmi.idref = $gid]">
        <xsl:attribute name="name"><xsl:value-of select="@name"/></xsl:attribute>
        <xsl:variable name="afters">
          <xsl:for-each select="key('dependency-by-client', $gid)">
            <xsl:variable name="sid"
                          select="UML:Dependency.supplier/*/@xmi.idref"/>
            <xsl:value-of select="key('vertex-by-id', $sid)/@name"/>
            <xsl:text>,</xsl:text>
          </xsl:for-each>
        </xsl:variable>
        <xsl:if test="string-length($afters) &gt; 0">
          <xsl:attribute name="after">
            <xsl:value-of
                select="substring($afters, 1, string-length($afters) - 1)"/>
          </xsl:attribute>
        </xsl:if>
      </xsl:if>
      <xsl:apply-templates select=".//UML:ActionState[not(@xmi.idref)]"/>
    </job>
  </xsl:template>

  <!-- Resolve a tagged value on the current ActionState by tag name:
       one lookup in tag-by-owner, not a walk over the state's tags. -->
  <xsl:template name="tag-value">
    <xsl:param name="tag"/>
    <xsl:param name="state" select="."/>
    <xsl:for-each select="key('tag-by-owner',
                              concat(generate-id($state), '|', $tag))">
      <xsl:value-of select="@dataValue"/>
    </xsl:for-each>
  </xsl:template>

  <xsl:template match="UML:ActionState">
    <xsl:variable name="vid" select="@xmi.id"/>
    <xsl:variable name="rawdeps">
      <xsl:call-template name="collect-deps">
        <xsl:with-param name="vid" select="$vid"/>
      </xsl:call-template>
    </xsl:variable>
    <task name="{@name}">
      <xsl:attribute name="jar">
        <xsl:call-template name="tag-value">
          <xsl:with-param name="tag" select="'jar'"/>
        </xsl:call-template>
      </xsl:attribute>
      <xsl:attribute name="class">
        <xsl:call-template name="tag-value">
          <xsl:with-param name="tag" select="'class'"/>
        </xsl:call-template>
      </xsl:attribute>
      <xsl:attribute name="depends">
        <xsl:choose>
          <xsl:when test="string-length($rawdeps) &gt; 0">
            <!-- drop the trailing comma the collector appends -->
            <xsl:value-of
                select="substring($rawdeps, 1, string-length($rawdeps) - 1)"/>
          </xsl:when>
          <xsl:otherwise/>
        </xsl:choose>
      </xsl:attribute>
      <xsl:if test="@isDynamic = 'true'">
        <xsl:attribute name="dynamic">true</xsl:attribute>
        <xsl:attribute name="multiplicity">
          <xsl:choose>
            <xsl:when test="@dynamicMultiplicity">
              <xsl:value-of select="@dynamicMultiplicity"/>
            </xsl:when>
            <xsl:otherwise>0..*</xsl:otherwise>
          </xsl:choose>
        </xsl:attribute>
        <xsl:if test="UML:ActionState.dynamicArguments/UML:ArgListsExpression/@body">
          <xsl:attribute name="arguments">
            <xsl:value-of
                select="UML:ActionState.dynamicArguments/UML:ArgListsExpression/@body"/>
          </xsl:attribute>
        </xsl:if>
      </xsl:if>
      <!-- declared message flows: emitted only when the action is tagged -->
      <xsl:variable name="sends">
        <xsl:call-template name="tag-value">
          <xsl:with-param name="tag" select="'sends'"/>
        </xsl:call-template>
      </xsl:variable>
      <xsl:if test="string-length($sends) &gt; 0">
        <xsl:attribute name="sends"><xsl:value-of select="$sends"/></xsl:attribute>
      </xsl:if>
      <xsl:variable name="receives">
        <xsl:call-template name="tag-value">
          <xsl:with-param name="tag" select="'receives'"/>
        </xsl:call-template>
      </xsl:variable>
      <xsl:if test="string-length($receives) &gt; 0">
        <xsl:attribute name="receives"><xsl:value-of select="$receives"/></xsl:attribute>
      </xsl:if>
      <task-req>
        <memory>
          <xsl:call-template name="tag-value">
            <xsl:with-param name="tag" select="'memory'"/>
          </xsl:call-template>
        </memory>
        <runmodel>
          <xsl:call-template name="tag-value">
            <xsl:with-param name="tag" select="'runmodel'"/>
          </xsl:call-template>
        </runmodel>
        <xsl:variable name="retries">
          <xsl:call-template name="tag-value">
            <xsl:with-param name="tag" select="'retries'"/>
          </xsl:call-template>
        </xsl:variable>
        <xsl:if test="string-length($retries) &gt; 0">
          <retries><xsl:value-of select="$retries"/></retries>
        </xsl:if>
      </task-req>
      <!-- ordered ptypeN/pvalueN pairs become <param> children -->
      <xsl:for-each select="UML:ModelElement.taggedValue/UML:TaggedValue">
        <xsl:sort data-type="number"
                  select="substring-after(key('tagdef-by-id',
                          current()/UML:TaggedValue.type/UML:TagDefinition/@xmi.idref)
                          /@name, 'ptype')"/>
        <xsl:variable name="defname"
                      select="key('tagdef-by-id',
                              UML:TaggedValue.type/UML:TagDefinition/@xmi.idref)/@name"/>
        <xsl:if test="starts-with($defname, 'ptype')">
          <xsl:variable name="index" select="substring-after($defname, 'ptype')"/>
          <param type="{@dataValue}">
            <xsl:call-template name="tag-value">
              <xsl:with-param name="tag" select="concat('pvalue', $index)"/>
              <xsl:with-param name="state" select="../.."/>
            </xsl:call-template>
          </param>
        </xsl:if>
      </xsl:for-each>
    </task>
  </xsl:template>

  <!-- Emit "<name>," for every nearest preceding ActionState, walking
       backwards through pseudostates. -->
  <xsl:template name="collect-deps">
    <xsl:param name="vid"/>
    <xsl:for-each select="key('transition-by-target', $vid)[not(@xmi.idref)]">
      <xsl:variable name="srcid" select="UML:Transition.source/*/@xmi.idref"/>
      <xsl:variable name="src" select="key('vertex-by-id', $srcid)"/>
      <xsl:choose>
        <xsl:when test="name($src) = 'UML:ActionState'">
          <xsl:value-of select="$src/@name"/>
          <xsl:text>,</xsl:text>
        </xsl:when>
        <xsl:otherwise>
          <xsl:call-template name="collect-deps">
            <xsl:with-param name="vid" select="$srcid"/>
          </xsl:call-template>
        </xsl:otherwise>
      </xsl:choose>
    </xsl:for-each>
  </xsl:template>
</xsl:stylesheet>
