package repro.fpm

import scala.collection.mutable

/** Local FP-tree (Han, Pei, Yin — "Mining frequent patterns without
  * candidate generation", SIGMOD 2000).
  *
  * Transactions are inserted root-down; each distinct item keeps a summary
  * (total count + the tree nodes holding it) acting as the header table.
  * Mining walks suffix items, projects the conditional tree for each, and
  * recurses — no candidate generation.
  *
  * `FPGrowth.mineLocal` builds one tree per cuisine and extracts it.
  */
class FPTree[T] extends Serializable {
  import FPTree._

  val root: Node[T] = new Node(null)

  private val summaries: mutable.Map[T, Summary[T]] = mutable.Map.empty

  /** Number of distinct items seen. */
  def nItems: Int = summaries.size

  /** Total count of an item across the tree (0 if absent). */
  def itemCount(item: T): Long = summaries.get(item).map(_.count).getOrElse(0L)

  /** Insert a transaction (item order must be the global rank order for the
    * tree to compress well; correctness does not depend on it).
    */
  def add(t: Iterable[T], count: Long = 1L): this.type = {
    require(count > 0, s"count must be positive, got $count")
    var curr = root
    curr.count += count
    t.foreach { item =>
      val summary = summaries.getOrElseUpdate(item, new Summary)
      summary.count += count
      val child = curr.children.getOrElseUpdate(item, {
        val newNode = new Node(curr)
        newNode.item = item
        summary.nodes += newNode
        newNode
      })
      child.count += count
      curr = child
    }
    this
  }

  /** Conditional tree for a suffix item: the prefix paths of every node
    * holding `suffix`, weighted by that node's count.
    */
  private def project(suffix: T): FPTree[T] = {
    val tree = new FPTree[T]
    summaries.get(suffix).foreach { summary =>
      summary.nodes.foreach { node =>
        var t = List.empty[T]
        var curr = node.parent
        while (!curr.isRoot) {
          t = curr.item :: t
          curr = curr.parent
        }
        tree.add(t, node.count)
      }
    }
    tree
  }

  /** All transactions currently encoded in the tree (path, count). */
  def transactions: Iterator[(List[T], Long)] = getTransactions(root)

  private def getTransactions(node: Node[T]): Iterator[(List[T], Long)] = {
    var count = node.count
    node.children.iterator.flatMap { case (item, child) =>
      getTransactions(child).map { case (t, c) =>
        count -= c
        (item :: t, c)
      }
    } ++ (if (count > 0) Iterator.single((Nil, count)) else Iterator.empty)
  }

  /** All frequent itemsets with count >= minCount, each emitted once with
    * its suffix item (the item whose conditional tree produced it) first.
    */
  def extract(minCount: Long): Iterator[(List[T], Long)] =
    summaries.iterator.flatMap { case (item, summary) =>
      if (summary.count >= minCount) {
        Iterator.single((item :: Nil, summary.count)) ++
          project(item).extract(minCount).map { case (t, c) => (item :: t, c) }
      } else {
        Iterator.empty
      }
    }
}

object FPTree {

  /** A node in the tree; `item` is null only at the root. */
  class Node[T](val parent: Node[T]) extends Serializable {
    var item: T = _
    var count: Long = 0L
    val children: mutable.Map[T, Node[T]] = mutable.Map.empty
    def isRoot: Boolean = parent == null
  }

  /** Header-table entry: total count and the nodes holding the item. */
  class Summary[T] extends Serializable {
    var count: Long = 0L
    val nodes: mutable.ListBuffer[Node[T]] = mutable.ListBuffer.empty
  }
}
